// capes_replay — feed a flight-recorder capture (capes_run --capture=)
// back into a fresh core::LocalBrain (Interface Daemon + DRL Engine), offline.
//
// Three uses: train-from-trace (the replayed PI stream drives real
// train_ticks, at --speed=realtime|fast|max), deterministic incident
// repro (a seeded capture replayed at max speed reproduces the live
// run's training fingerprint bit-for-bit), and regression diffs
// (--diff=CONF replays the same traffic under a second configuration and
// compares the per-phase outcomes side by side).
//
// Torn/corrupt capture tails are tolerated: replay truncates at the last
// valid record and reports the loss; only a capture with zero valid
// records exits nonzero.

#include <cstdio>
#include <string>

#include "core/config_io.hpp"
#include "core/trace_replay.hpp"
#include "util/config.hpp"
#include "util/options.hpp"

using namespace capes;

namespace {

struct Args {
  std::string capture;  ///< required
  core::ReplaySpeed speed = core::ReplaySpeed::kMax;
  std::string conf;  ///< optional overlay for the (first) replay
  std::string diff;  ///< second conf: replay twice and compare phases
  bool help = false;
};

constexpr util::Option<Args> kFlags[] = {
    {.key = "--capture", .field = CAPES_FIELD(capture), .form = "FILE"},
    {"--speed", CAPES_FIELD(speed), {}, core::kReplaySpeedNames},
    {.key = "--conf", .field = CAPES_FIELD(conf), .form = "FILE"},
    {.key = "--diff", .field = CAPES_FIELD(diff), .form = "FILE"},
    {"--help", CAPES_FIELD(help)},
};

void print_usage() {
  std::printf(
      "%s\n"
      "Replays a capes_run --capture= flight recording into a fresh\n"
      "Interface Daemon + DRL Engine: the traced PI bytes hit fresh\n"
      "decoders in delivery order and training-phase action records drive\n"
      "real train steps (train-from-trace). --capture is required. At\n"
      "--speed=max (the default) a seeded capture reproduces the live\n"
      "run's training fingerprint bit-for-bit; realtime paces one sampling\n"
      "tick per trace tick and fast runs 20x that.\n"
      "--conf=FILE overlays engine/replay hyperparameters (core conf keys)\n"
      "onto the traced configuration — same traffic, different tuner.\n"
      "--diff=FILE replays twice, the second time under FILE's keys, and\n"
      "prints the per-phase outcomes side by side.\n"
      "Torn/corrupt tails truncate at the last valid record (reported);\n"
      "only a capture with zero valid records fails.\n",
      util::flag_usage<Args>(kFlags, "capes_replay").c_str());
}

bool load_overlay(const std::string& path, core::CapesOptions* out) {
  util::Config cfg;
  if (!cfg.parse_file(path)) {
    std::fprintf(stderr, "cannot parse config file '%s'\n", path.c_str());
    return false;
  }
  *out = core::capes_options_from_config(cfg);
  return true;
}

void print_report(const core::TraceReplayReport& report) {
  for (const auto& phase : report.phases) {
    std::printf(
        "  %-8s ticks %lld..%lld (%lld): reward %.4f, %.1f MB/s, %.2f ms, "
        "%zu train steps, %llu actions (%llu diverged)\n",
        core::phase_name(phase.phase), static_cast<long long>(phase.begin_tick),
        static_cast<long long>(phase.end_tick),
        static_cast<long long>(phase.ticks), phase.mean_reward,
        phase.mean_throughput_mbs, phase.mean_latency_ms, phase.train_steps,
        static_cast<unsigned long long>(phase.action_records),
        static_cast<unsigned long long>(phase.action_mismatches));
  }
  std::printf(
      "  %llu status / %llu reward / %llu action / %llu broadcast records, "
      "%llu workload changes, %llu decode errors\n",
      static_cast<unsigned long long>(report.status_records),
      static_cast<unsigned long long>(report.reward_records),
      static_cast<unsigned long long>(report.action_records),
      static_cast<unsigned long long>(report.broadcast_records),
      static_cast<unsigned long long>(report.workload_changes),
      static_cast<unsigned long long>(report.decode_errors));
  // Gated on traced fault records so faultless captures print exactly
  // what they always did. The format matches capes_run's fault lines, so
  // live-vs-replay parity is a plain grep + cmp between the two outputs.
  if (report.fault_records > 0) {
    std::uint64_t injected = 0, crashes = 0, stragglers = 0, partitions = 0,
                  degraded = 0;
    for (const auto& phase : report.phases) {
      injected += phase.faults_injected;
      crashes += phase.ost_crashes;
      stragglers += phase.stragglers;
      partitions += phase.partitions;
      degraded += phase.ticks_degraded;
    }
    std::printf("faults: %llu injected (%llu ost crashes, %llu stragglers, "
                "%llu partitions), %llu degraded domain-ticks\n",
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(crashes),
                static_cast<unsigned long long>(stragglers),
                static_cast<unsigned long long>(partitions),
                static_cast<unsigned long long>(degraded));
    std::printf("regime shifts:");
    for (const auto& phase : report.phases) {
      std::printf(" %s %zu", core::phase_name(phase.phase),
                  phase.regime_shifts);
    }
    std::printf("\n");
  }
}

/// One replay pass. Returns false only on open failure.
bool replay_once(const Args& args, const core::CapesOptions* overlay,
                 core::TraceReplayReport* out) {
  core::TraceReplayOptions opts;
  opts.speed = args.speed;
  opts.config_overlay = overlay;
  core::TraceReplayer replayer;
  std::string error;
  if (!replayer.open(args.capture, opts, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  if (!replayer.fresh_weights_match() && overlay == nullptr) {
    std::printf(
        "warning: the live run started from restored weights; replayed "
        "fingerprints will not match it\n");
  }
  *out = replayer.run();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!util::parse_flags(kFlags, argc, argv, &args, &error) ||
      (!args.help && args.capture.empty())) {
    std::fprintf(stderr, "%s\n",
                 error.empty() ? "--capture=FILE is required" : error.c_str());
    print_usage();
    return 2;
  }
  if (args.help) {
    print_usage();
    return 0;
  }

  core::CapesOptions conf_overlay;
  const bool have_conf = !args.conf.empty();
  if (have_conf && !load_overlay(args.conf, &conf_overlay)) return 1;
  core::CapesOptions diff_overlay;
  const bool have_diff = !args.diff.empty();
  if (have_diff && !load_overlay(args.diff, &diff_overlay)) return 1;

  core::TraceReplayReport report;
  if (!replay_once(args, have_conf ? &conf_overlay : nullptr, &report)) {
    return 1;
  }

  std::printf("replayed %s at %s speed%s\n", args.capture.c_str(),
              core::kReplaySpeedNames[static_cast<int>(args.speed)].data(),
              have_conf ? (" with overlay " + args.conf).c_str() : "");
  if (report.read_stats.dropped_records > 0) {
    std::printf(
        "warning: lossy capture — the live run shed %llu record(s); "
        "differential PI decoding may have diverged\n",
        static_cast<unsigned long long>(report.read_stats.dropped_records));
  }
  if (report.tail_truncated) {
    std::printf(
        "warning: torn/corrupt tail — truncated at the last valid record, "
        "~%llu record(s) / %llu bytes discarded\n",
        static_cast<unsigned long long>(report.read_stats.truncated_records),
        static_cast<unsigned long long>(report.read_stats.truncated_bytes));
  }
  if (report.read_stats.valid_records == 0) {
    std::fprintf(stderr, "no valid records in %s\n", args.capture.c_str());
    return 1;
  }
  print_report(report);

  if (have_diff) {
    core::TraceReplayReport other;
    if (!replay_once(args, &diff_overlay, &other)) return 1;
    std::printf("diff against %s on identical traffic:\n", args.diff.c_str());
    print_report(other);
    const std::size_t phases =
        report.phases.size() < other.phases.size() ? report.phases.size()
                                                   : other.phases.size();
    for (std::size_t i = 0; i < phases; ++i) {
      const auto& a = report.phases[i];
      const auto& b = other.phases[i];
      std::printf(
          "  %-8s reward %.4f -> %.4f (%+.4f), diverging actions "
          "%llu -> %llu\n",
          core::phase_name(a.phase), a.mean_reward, b.mean_reward,
          b.mean_reward - a.mean_reward,
          static_cast<unsigned long long>(a.action_mismatches),
          static_cast<unsigned long long>(b.action_mismatches));
    }
    std::printf("diff fingerprints %08x vs %08x (%zu vs %zu train steps)\n",
                report.weights_fingerprint, other.weights_fingerprint,
                report.total_train_steps, other.total_train_steps);
  }

  // Same format as capes_run's closing line, so the round-trip check is a
  // plain grep + cmp between the two outputs.
  std::printf("training fingerprint %08x (%zu train steps)\n",
              report.weights_fingerprint, report.total_train_steps);
  return 0;
}
