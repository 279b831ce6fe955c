#pragma once
// Train-from-trace: feed a flight-recorder capture back into a fresh
// LocalBrain (built from the capture meta through the same from-meta path
// as the tcp brain service), reproducing the live run's Replay DB
// writes and training schedule without a simulator or target system. The
// replayed PI bytes hit fresh stateful decoders in delivery order, the
// traced rewards and recorded actions land in the Replay DB exactly as
// they did live, and training-phase action records drive real
// compute_action / train_tick calls — so a seeded capture replayed at
// `max` speed ends with a training fingerprint bit-identical to the
// original run (the round-trip guarantee pinned by
// tests/integration/test_capture.cpp).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "capture/trace_meta.hpp"
#include "capture/wire_log_reader.hpp"
#include "core/brain.hpp"
#include "core/capes_system.hpp"

namespace capes::core {

enum class ReplaySpeed {
  kRealtime,  ///< one sampling_tick_s wall-clock pause per trace tick
  kFast,      ///< realtime / 20
  kMax,       ///< no pacing (the determinism-check mode)
};

/// --speed values, indexed by ReplaySpeed.
inline constexpr std::string_view kReplaySpeedNames[] = {"realtime", "fast",
                                                         "max"};

struct TraceReplayOptions {
  ReplaySpeed speed = ReplaySpeed::kMax;
  /// Optional engine/replay hyperparameter overlay (diff mode: same
  /// traffic, different tuner configuration). Topology and both seeds
  /// always come from the capture meta so a diff isolates the overlay.
  const CapesOptions* config_overlay = nullptr;
};

/// Per-phase replay outcome, the PhaseReport analogue diff mode compares.
struct ReplayPhaseSummary {
  RunPhase phase = RunPhase::kIdle;
  std::int64_t begin_tick = 0;
  std::int64_t end_tick = 0;
  std::int64_t ticks = 0;  ///< reward records inside the phase
  double mean_reward = 0.0;
  double mean_throughput_mbs = 0.0;
  double mean_latency_ms = 0.0;
  std::size_t train_steps = 0;
  std::uint64_t action_records = 0;
  /// Replayed engine suggestions that differ from the traced ones. Zero
  /// on a faithful round trip; nonzero under a config overlay is the
  /// diff-mode signal, not an error.
  std::uint64_t action_mismatches = 0;
  /// Fault-injection accounting rebuilt from kFault records (all zero on
  /// a faultless capture) — matches the live run's RunResult counters.
  std::uint64_t faults_injected = 0;
  std::uint64_t ost_crashes = 0;
  std::uint64_t stragglers = 0;
  std::uint64_t partitions = 0;
  std::uint64_t ticks_degraded = 0;
  /// PELT mean-shift changepoints over the phase's traced per-tick
  /// throughput series — the same statistic the live run computes, so a
  /// faithful replay reproduces it exactly.
  std::size_t regime_shifts = 0;
};

struct TraceReplayReport {
  std::vector<ReplayPhaseSummary> phases;
  capture::ReadStats read_stats;
  std::uint64_t status_records = 0;
  std::uint64_t reward_records = 0;
  std::uint64_t action_records = 0;
  std::uint64_t broadcast_records = 0;
  std::uint64_t workload_changes = 0;
  std::uint64_t fault_records = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t action_mismatches = 0;
  std::size_t total_train_steps = 0;
  std::uint32_t weights_fingerprint = 0;
  bool tail_truncated = false;
};

class TraceReplayer {
 public:
  TraceReplayer();
  ~TraceReplayer();

  /// Load + validate the capture and construct the fresh replay pipeline
  /// (an ingest-only LocalBrain: Replay DB, daemon decoders, DRL engine).
  /// False + `*error` on a missing/corrupt file, undecodable meta, or zero
  /// valid records.
  bool open(const std::string& path, TraceReplayOptions opts,
            std::string* error);

  const capture::TraceMeta& meta() const { return meta_; }

  /// True when the replayed engine's fresh weights match the fingerprint
  /// the capture recorded at start — i.e. the live run did NOT resume
  /// from a checkpoint and the round-trip guarantee applies.
  bool fresh_weights_match() const { return fresh_weights_match_; }

  /// Consume the whole capture. Call once.
  TraceReplayReport run();

 private:
  TraceReplayOptions opts_;
  capture::WireLogReader reader_;
  capture::TraceMeta meta_;
  bool fresh_weights_match_ = true;

  std::unique_ptr<LocalBrain> brain_;
};

}  // namespace capes::core
