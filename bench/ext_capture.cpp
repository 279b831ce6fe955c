// Flight-recorder bench: training ticks/sec with the capture wire log
// off vs on, plus the steady-state heap-allocation rate of the tick
// path with capture enabled in the audited configuration. The recorder
// hands records to a dedicated writer thread through recycled slots
// (src/capture/wire_log_writer.cpp), so the expected overhead is a few
// memcpys per tick and the expected allocation rate is zero; this bench
// measures both so a regression in either shows up as a number, not a
// hunch.
//
//   ./build/bench/ext_capture [--ticks=N] [--json=FILE]
//       [--capture-file=FILE]
//
// --json writes a machine-readable summary; tools/run_ext_bench.sh capture
// wraps this into BENCH_capture.json for CI artifacts. The capture file
// itself is scratch output and is deleted on exit.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "capture/wire_log_writer.hpp"
#include "util/alloc_hook.hpp"
#include "util/parse.hpp"

using namespace capes;
using util::parse_flag;

namespace {

struct Sample {
  std::string capture;  // "off" | "on"
  double ticks_per_sec = 0.0;
};

struct CaptureStats {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
};

std::unique_ptr<core::Experiment> build(const std::string& capture_path) {
  auto builder = core::Experiment::builder()
                     .seed(11)
                     .workload(benchutil::random_spec(0.5))
                     .warmup_seconds(2)
                     .worker_threads(0)
                     .learner("sync");
  if (!capture_path.empty()) builder.capture(capture_path);
  return benchutil::build_or_die(std::move(builder));
}

/// Warm past the replay ramp-up so every measured tick runs full
/// minibatch training, then time `ticks` training ticks. When
/// `capture_path` is set, the run records every daemon-boundary message
/// and `stats` reports what the writer logged.
double measure(const std::string& capture_path, std::int64_t ticks,
               CaptureStats* stats) {
  auto experiment = build(capture_path);
  experiment->run_training(
      static_cast<std::int64_t>(
          experiment->preset().capes.replay.ticks_per_observation) +
      40);
  const auto start = std::chrono::steady_clock::now();
  experiment->run_training(ticks);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (stats != nullptr) {
    if (auto* writer = experiment->system().capture_writer()) {
      writer->close();
      stats->records = writer->records_logged();
      stats->bytes = writer->bytes_written();
      stats->dropped = writer->records_dropped();
    }
  }
  return static_cast<double>(ticks) / elapsed.count();
}

/// Steady-state heap allocations per tick with the recorder RUNNING, in
/// the audited configuration (sync learner, no worker pool, bounded
/// replay retention). The recorder's slot pool pre-reserves payload
/// capacity, so this must stay 0 — capture on may not cost the control
/// thread a single allocation. -1 when the counting hook is absent.
double measure_allocs_per_tick(const std::string& capture_path,
                               std::int64_t ticks) {
  if (!util::allocation_hook_active()) return -1.0;
  auto preset = core::fast_preset(11);
  preset.capes.engine.learner_mode = core::LearnerMode::kSync;
  preset.capes.worker_threads = 0;
  preset.capes.replay.max_ticks_retained = 64;
  auto builder = core::Experiment::builder()
                     .preset(preset)
                     .workload(benchutil::random_spec(0.5))
                     .warmup_seconds(2)
                     .capture(capture_path);
  auto experiment = benchutil::build_or_die(std::move(builder));
  experiment->run_training(120);  // warm every pool and scratch buffer
  const std::uint64_t warm = experiment->system().hot_path_allocations();
  experiment->run_training(ticks);
  const std::uint64_t after = experiment->system().hot_path_allocations();
  return static_cast<double>(after - warm) / static_cast<double>(ticks);
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t ticks = 200;
  std::string json_path;
  std::string capture_file = "bench_capture.cap";
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--ticks", &value)) {
      if (!util::parse_i64(value, &ticks) || ticks <= 0) {
        std::fprintf(stderr, "--ticks must be a positive integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (parse_flag(argv[i], "--json", &value)) {
      json_path = value;
    } else if (parse_flag(argv[i], "--capture-file", &value)) {
      capture_file = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  benchutil::print_header("flight recorder (ticks/sec, capture off vs on)");
  std::printf("%lld training ticks per point, %u hardware threads\n\n",
              static_cast<long long>(ticks),
              std::thread::hardware_concurrency());
  std::printf("%8s %12s\n", "capture", "ticks/s");

  std::vector<Sample> samples;
  CaptureStats stats;
  for (const char* mode : {"off", "on"}) {
    Sample s;
    s.capture = mode;
    const bool on = std::string(mode) == "on";
    s.ticks_per_sec =
        measure(on ? capture_file : std::string(), ticks, on ? &stats : nullptr);
    std::printf("%8s %12.1f\n", s.capture.c_str(), s.ticks_per_sec);
    std::fflush(stdout);
    samples.push_back(s);
  }

  const double overhead =
      samples[0].ticks_per_sec > 0.0
          ? (1.0 - samples[1].ticks_per_sec / samples[0].ticks_per_sec) * 100.0
          : 0.0;
  std::printf("\ncapture overhead: %.1f%%\n", overhead);
  std::printf("captured: %llu records, %llu bytes, %llu dropped\n",
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.bytes),
              static_cast<unsigned long long>(stats.dropped));

  const double allocs_per_tick = measure_allocs_per_tick(capture_file, ticks);
  if (allocs_per_tick < 0.0) {
    std::printf("allocations/tick: n/a (counting hook not linked)\n");
  } else {
    std::printf("allocations/tick (capture on, audited config): %.2f\n",
                allocs_per_tick);
  }
  std::remove(capture_file.c_str());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_capture\",\n"
        << "  \"ticks\": " << ticks << ",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n  \"capture_overhead_pct\": " << overhead
        << ",\n  \"records_logged\": " << stats.records
        << ",\n  \"bytes_written\": " << stats.bytes
        << ",\n  \"records_dropped\": " << stats.dropped
        << ",\n  \"allocations_per_tick\": " << allocs_per_tick
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      char line[160];
      std::snprintf(line, sizeof(line),
                    "    {\"capture\": \"%s\", \"ticks_per_sec\": %.2f}%s\n",
                    s.capture.c_str(), s.ticks_per_sec,
                    i + 1 < samples.size() ? "," : "");
      out << line;
    }
    out << "  ]\n}\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
