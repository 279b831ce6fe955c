#include "core/trace_replay.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "sim/fault.hpp"
#include "stats/changepoint.hpp"
#include "util/frame.hpp"
#include "util/logging.hpp"

namespace capes::core {

using util::get_le32;
using util::get_le_f64;

TraceReplayer::TraceReplayer() = default;
TraceReplayer::~TraceReplayer() = default;

bool TraceReplayer::open(const std::string& path, TraceReplayOptions opts,
                         std::string* error) {
  opts_ = opts;
  if (!reader_.open(path, error)) return false;
  auto meta = capture::TraceMeta::decode(reader_.meta());
  if (!meta) {
    if (error) *error = "capture meta is missing or undecodable: " + path;
    return false;
  }
  meta_ = *meta;
  if (meta_.num_nodes == 0 || meta_.pis_per_node == 0 ||
      meta_.num_actions == 0) {
    if (error) *error = "capture meta describes an empty topology: " + path;
    return false;
  }

  BrainOptions brain_opts = brain_options_from_meta(meta_);
  if (opts_.config_overlay != nullptr) {
    // The overlay's hyperparameters on the traced topology. Seeds always
    // come from the capture, overlay or not: a diff should isolate the
    // hyperparameter change, not add seed noise (and the conf scheme has
    // no seed keys anyway — seeds flow through --seed presets).
    const BrainOptions traced = brain_opts;
    brain_opts = {opts_.config_overlay->replay, opts_.config_overlay->engine};
    brain_opts.replay.num_nodes = traced.replay.num_nodes;
    brain_opts.replay.pis_per_node = traced.replay.pis_per_node;
    brain_opts.engine.dqn.num_actions = traced.engine.dqn.num_actions;
    brain_opts.engine.seed = traced.engine.seed;
    brain_opts.engine.dqn.seed = traced.engine.dqn.seed;
    brain_opts.engine.learner_mode = LearnerMode::kSync;
    brain_opts.engine.checkpoint_ticks = 0;
  }
  // Ingest-only: no shards, because replay records the traced action
  // rather than routing one.
  brain_ = std::make_unique<LocalBrain>(brain_opts, std::vector<DaemonShard>{});
  fresh_weights_match_ =
      brain_->weights_fingerprint() == meta_.initial_weights_fingerprint;
  if (!fresh_weights_match_ && opts_.config_overlay == nullptr) {
    CAPES_LOG_WARN("replay")
        << "fresh weights do not match the capture's starting fingerprint "
        << "(the live run likely restored a checkpoint); the round-trip "
        << "guarantee does not apply";
  }
  return true;
}

TraceReplayReport TraceReplayer::run() {
  TraceReplayReport report;
  rl::ReplayDb& replay = brain_->replay();
  DrlEngine& engine = brain_->engine();
  ReplayPhaseSummary phase;
  bool in_phase = false;
  double reward_sum = 0.0;
  double throughput_sum = 0.0;
  double latency_sum = 0.0;
  // Per-tick throughput inside the current phase: the traced analogue of
  // RunResult::throughput.samples(), so the changepoint count below is
  // computed on exactly the series the live run analyzed.
  std::vector<double> throughput_samples;

  const double tick_seconds =
      opts_.speed == ReplaySpeed::kRealtime ? meta_.sampling_tick_s
      : opts_.speed == ReplaySpeed::kFast   ? meta_.sampling_tick_s / 20.0
                                            : 0.0;

  net::Frame rec;
  while (reader_.next(&rec)) {
    switch (static_cast<capture::RecordType>(rec.type)) {
      case capture::RecordType::kStatus:
        ++report.status_records;
        brain_->daemon().on_status_message(rec.payload);
        break;

      case capture::RecordType::kReward: {
        if (rec.payload.size() < 24) break;  // malformed-but-valid-CRC guard
        ++report.reward_records;
        const double reward = get_le_f64(rec.payload.data());
        replay.record_reward(rec.tick, reward);
        if (in_phase) {
          ++phase.ticks;
          reward_sum += reward;
          const double throughput = get_le_f64(rec.payload.data() + 8);
          throughput_sum += throughput;
          throughput_samples.push_back(throughput);
          latency_sum += get_le_f64(rec.payload.data() + 16);
        }
        if (tick_seconds > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(tick_seconds));
        }
        break;
      }

      case capture::RecordType::kAction: {
        if (rec.payload.size() < 8) break;
        ++report.action_records;
        if (in_phase) ++phase.action_records;
        const std::size_t traced_suggested = get_le32(rec.payload.data());
        const std::size_t traced_recorded = get_le32(rec.payload.data() + 4);
        const bool training = in_phase && phase.phase == RunPhase::kTraining;
        const bool tuned = in_phase && phase.phase == RunPhase::kTuned;
        if (training || tuned) {
          // Consume the identical RNG stream the live engine did. The
          // *traced* recorded action goes into the replay DB — traffic
          // is fixed by the capture, so divergent suggestions (possible
          // only under a config overlay) are counted, not applied.
          const std::size_t suggested =
              engine.compute_action(rec.tick, training);
          if (suggested != traced_suggested) {
            ++report.action_mismatches;
            if (in_phase) ++phase.action_mismatches;
          }
        }
        replay.record_action(rec.tick, traced_recorded);
        if (training) {
          phase.train_steps += engine.train_tick();
        }
        break;
      }

      case capture::RecordType::kBroadcast:
        ++report.broadcast_records;
        break;

      case capture::RecordType::kPhaseBegin:
        if (in_phase) report.phases.push_back(phase);  // unterminated phase
        phase = ReplayPhaseSummary{};
        phase.phase = rec.payload.empty()
                          ? RunPhase::kIdle
                          : static_cast<RunPhase>(rec.payload[0]);
        phase.begin_tick = rec.tick;
        in_phase = true;
        reward_sum = throughput_sum = latency_sum = 0.0;
        throughput_samples.clear();
        break;

      case capture::RecordType::kPhaseEnd:
        if (!in_phase) break;
        phase.end_tick = rec.tick;
        if (phase.ticks > 0) {
          const double n = static_cast<double>(phase.ticks);
          phase.mean_reward = reward_sum / n;
          phase.mean_throughput_mbs = throughput_sum / n;
          phase.mean_latency_ms = latency_sum / n;
        }
        // Unconditional, like the live run: live and replay must agree on
        // this count whether or not any fault fired.
        phase.regime_shifts =
            stats::pelt_mean_shift(throughput_samples).size();
        report.phases.push_back(phase);
        in_phase = false;
        break;

      case capture::RecordType::kWorkloadChange:
        ++report.workload_changes;
        brain_->workload_change(rec.tick);
        break;

      case capture::RecordType::kFault: {
        ++report.fault_records;
        if (rec.payload.empty() || !in_phase) break;
        switch (static_cast<sim::FaultKind>(rec.payload[0])) {
          case sim::FaultKind::kDegraded:
            ++phase.ticks_degraded;
            break;
          case sim::FaultKind::kOstCrash:
            ++phase.faults_injected;
            ++phase.ost_crashes;
            break;
          case sim::FaultKind::kStraggler:
            ++phase.faults_injected;
            ++phase.stragglers;
            break;
          case sim::FaultKind::kPartition:
            ++phase.faults_injected;
            ++phase.partitions;
            break;
        }
        break;
      }
    }
  }
  if (in_phase) {
    // Torn tail mid-phase: finish the changepoint count on what we have.
    phase.regime_shifts = stats::pelt_mean_shift(throughput_samples).size();
    report.phases.push_back(phase);
  }

  report.read_stats = reader_.stats();
  report.tail_truncated = reader_.tail_truncated();
  report.decode_errors = brain_->daemon().decode_errors();
  report.total_train_steps = engine.total_train_steps();
  report.weights_fingerprint = engine.weights_fingerprint();
  return report;
}

}  // namespace capes::core
