// Async-learner bench: training ticks/sec with the DQN trained inline
// on the control thread (--learner=sync) vs on the dedicated learner
// thread (--learner=async), plus the steady-state heap-allocation rate
// of the tick path in the audited configuration. Sync and async produce
// bit-identical results (pinned by tests/integration/test_learner.cpp);
// this bench measures what the overlap buys. The async win tracks how
// much of a tick is training: it grows with minibatch size and network
// width, and needs a second hardware thread to show up at all.
//
//   ./build/bench/ext_learner [--ticks=N] [--json=FILE]
//
// --json writes a machine-readable summary; tools/run_ext_bench.sh learner
// wraps this into BENCH_learner.json for CI artifacts.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "util/alloc_hook.hpp"
#include "util/parse.hpp"

using namespace capes;
using util::parse_flag;

namespace {

constexpr std::size_t kThreadCounts[] = {0, 4};

struct Sample {
  std::size_t threads = 0;
  double ticks_per_sec_sync = 0.0;
  double ticks_per_sec_async = 0.0;
  double speedup() const {
    return ticks_per_sec_sync > 0.0 ? ticks_per_sec_async / ticks_per_sec_sync
                                    : 0.0;
  }
};

std::unique_ptr<core::Experiment> build(const char* mode,
                                        std::size_t threads) {
  auto builder = core::Experiment::builder()
                     .seed(11)
                     .workload(benchutil::random_spec(0.5))
                     .warmup_seconds(2)
                     .worker_threads(threads)
                     .learner(mode);
  return benchutil::build_or_die(std::move(builder));
}

/// Warm past the replay ramp-up so every measured tick runs full
/// minibatch training, then time `ticks` training ticks.
double measure(const char* mode, std::size_t threads,
               std::int64_t ticks) {
  auto experiment = build(mode, threads);
  experiment->run_training(
      static_cast<std::int64_t>(
          experiment->preset().capes.replay.ticks_per_observation) +
      40);
  const auto start = std::chrono::steady_clock::now();
  experiment->run_training(ticks);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(ticks) / elapsed.count();
}

/// Steady-state heap allocations per tick on the control path, in the
/// audited configuration (sync learner, no worker pool, memory-only DB,
/// bounded replay retention). 0 when the counting hook is linked and
/// the allocation-free tick path holds; -1 when the hook is absent.
double measure_allocs_per_tick(std::int64_t ticks) {
  if (!util::allocation_hook_active()) return -1.0;
  auto preset = core::fast_preset(11);
  preset.capes.engine.learner_mode = core::LearnerMode::kSync;
  preset.capes.worker_threads = 0;
  preset.capes.replay.max_ticks_retained = 64;
  auto builder = core::Experiment::builder()
                     .preset(preset)
                     .workload(benchutil::random_spec(0.5))
                     .warmup_seconds(2);
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
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  benchutil::print_header("async learner thread (ticks/sec, training)");
  std::printf("%lld training ticks per point, %u hardware threads\n\n",
              static_cast<long long>(ticks),
              std::thread::hardware_concurrency());
  std::printf("%8s %12s %13s %9s\n", "threads", "sync t/s", "async t/s",
              "speedup");

  std::vector<Sample> samples;
  for (std::size_t threads : kThreadCounts) {
    Sample s;
    s.threads = threads;
    s.ticks_per_sec_sync = measure("sync", threads, ticks);
    s.ticks_per_sec_async = measure("async", threads, ticks);
    std::printf("%8zu %12.1f %13.1f %8.2fx\n", s.threads, s.ticks_per_sec_sync,
                s.ticks_per_sec_async, s.speedup());
    std::fflush(stdout);
    samples.push_back(s);
  }

  const double allocs_per_tick = measure_allocs_per_tick(ticks);
  if (allocs_per_tick < 0.0) {
    std::printf("\nallocations/tick: n/a (counting hook not linked)\n");
  } else {
    std::printf("\nallocations/tick (steady state, audited config): %.2f\n",
                allocs_per_tick);
  }
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("note: single hardware thread — the async learner cannot "
                "overlap with the tick loop here; expect ~1.0x.\n");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_learner\",\n"
        << "  \"ticks\": " << ticks << ",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n  \"allocations_per_tick\": " << allocs_per_tick
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "    {\"threads\": %zu, \"ticks_per_sec_sync\": %.2f, "
                    "\"ticks_per_sec_async\": %.2f, \"speedup\": %.3f}%s\n",
                    s.threads, s.ticks_per_sec_sync, s.ticks_per_sec_async,
                    s.speedup(), i + 1 < samples.size() ? "," : "");
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
