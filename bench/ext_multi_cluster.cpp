// Multi-cluster scaling bench: tick throughput of one CapesSystem
// driving 1/2/4/8/64/128 replicated control domains, single-threaded
// vs. the worker-pool hot path (parallel monitoring-agent fan-out,
// pooled minibatch assembly and GEMM panels, pooled reward sampling and
// daemon decode). Training ticks are the hot path measured: per tick
// the brain samples every node of every domain, computes one composite
// action, and runs minibatch SGD on the concatenated observation. The
// 64/128-domain points run a fraction of --ticks (and a shorter replay
// fill) so the scaling push stays affordable on small CI runners.
//
//   ./build/bench/ext_multi_cluster [--ticks=N] [--threads=N] [--json=FILE]
//
// --json writes a machine-readable summary (ticks/sec vs. domain count);
// tools/run_ext_bench.sh multicluster wraps this into BENCH_multicluster.json
// for CI artifacts. Speedups track the machine's core count: on a
// single-core host the pool cannot beat the serial path.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "util/parse.hpp"

using namespace capes;
using util::parse_flag;

namespace {

constexpr std::size_t kDomainCounts[] = {1, 2, 4, 8, 64, 128};

/// Per-tick cost grows ~linearly with the domain count; scale the
/// measured ticks down at 64/128 domains so the point stays affordable
/// on a small CI runner without touching the 1-8 domain baselines.
std::int64_t scaled_ticks(std::int64_t ticks, std::size_t domains) {
  if (domains >= 128) return std::max<std::int64_t>(ticks / 8, 10);
  if (domains >= 64) return std::max<std::int64_t>(ticks / 4, 16);
  return ticks;
}

struct Sample {
  std::size_t domains = 0;
  std::size_t observation_size = 0;
  double ticks_per_sec_single = 0.0;
  double ticks_per_sec_pool = 0.0;
  double speedup() const {
    return ticks_per_sec_single > 0.0
               ? ticks_per_sec_pool / ticks_per_sec_single
               : 0.0;
  }
};

/// Train `ticks` on `domains` replicated clusters; returns ticks/sec and
/// fills *observation_size.
double measure(std::size_t domains, std::int64_t ticks, std::size_t threads,
               std::size_t* observation_size) {
  auto builder = core::Experiment::builder()
                     .seed(11)
                     .workload(benchutil::random_spec(0.5))
                     .warmup_seconds(2)
                     .worker_threads(threads);
  for (std::size_t d = 1; d < domains; ++d) {
    builder.add_cluster(benchutil::random_spec(0.5));
  }
  auto experiment = benchutil::build_or_die(std::move(builder));
  *observation_size = experiment->system().replay().observation_size();
  // Fill the replay DB far enough that every measured tick runs full
  // minibatch training (the steady-state hot path, not the ramp-up).
  // The big domain counts get a shorter fill: they exist to expose
  // per-domain fan-out costs, not DB ramp-up.
  experiment->run_training(
      static_cast<std::int64_t>(
          experiment->preset().capes.replay.ticks_per_observation) +
      (domains >= 64 ? 10 : 40));

  const auto start = std::chrono::steady_clock::now();
  experiment->run_training(ticks);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(ticks) / elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t ticks = 150;
  std::size_t threads =
      std::min<std::size_t>(8, std::thread::hardware_concurrency());
  if (threads == 0) threads = 2;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--ticks", &value)) {
      if (!util::parse_i64(value, &ticks) || ticks <= 0) {
        std::fprintf(stderr, "--ticks must be a positive integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (parse_flag(argv[i], "--threads", &value)) {
      std::int64_t parsed = 0;
      if (!util::parse_i64(value, &parsed) || parsed <= 0) {
        std::fprintf(stderr, "--threads must be a positive integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
      threads = static_cast<std::size_t>(parsed);
    } else if (parse_flag(argv[i], "--json", &value)) {
      json_path = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  benchutil::print_header("multi-cluster scaling (ticks/sec, training)");
  std::printf("%lld training ticks per point, pool of %zu worker threads, "
              "%u hardware threads\n\n",
              static_cast<long long>(ticks), threads,
              std::thread::hardware_concurrency());
  std::printf("%8s %10s %14s %14s %9s\n", "domains", "obs size",
              "single t/s", "pooled t/s", "speedup");

  std::vector<Sample> samples;
  for (std::size_t domains : kDomainCounts) {
    Sample s;
    s.domains = domains;
    const std::int64_t point_ticks = scaled_ticks(ticks, domains);
    s.ticks_per_sec_single =
        measure(domains, point_ticks, 0, &s.observation_size);
    s.ticks_per_sec_pool =
        measure(domains, point_ticks, threads, &s.observation_size);
    std::printf("%8zu %10zu %14.1f %14.1f %8.2fx\n", s.domains,
                s.observation_size, s.ticks_per_sec_single,
                s.ticks_per_sec_pool, s.speedup());
    std::fflush(stdout);
    samples.push_back(s);
  }
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("\nnote: single hardware thread — pool speedup is expected "
                "to be ~1.0 here; run on a multi-core host.\n");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_multi_cluster\",\n"
        << "  \"ticks\": " << ticks << ",\n"
        << "  \"pool_threads\": " << threads << ",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "    {\"domains\": %zu, \"observation_size\": %zu, "
                    "\"ticks_per_sec_single\": %.2f, "
                    "\"ticks_per_sec_pool\": %.2f, \"speedup\": %.3f}%s\n",
                    s.domains, s.observation_size, s.ticks_per_sec_single,
                    s.ticks_per_sec_pool, s.speedup(),
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
