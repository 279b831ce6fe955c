// Sharded-event-loop bench, two scenarios:
//
//   uniform: training ticks/sec of 1/2/4/8 replicated control domains
//     with the simulator event loop serial (one queue, --sim-shards=1)
//     vs sharded (one queue per domain, advanced concurrently on the
//     worker pool between sampling ticks). Both sides use the same
//     worker pool for the rest of the hot path, so the delta is pure
//     event-loop sharding.
//
//   skewed: 8/64/128 domains where every 8th domain is hot (pure
//     random writes, ~3x the executed events of the others' light
//     fileserver load), packed onto 8 queues. Measures static round-robin
//     placement vs the rate-aware plan (--shard-plan=rate) and reports
//     each side's max/mean shard-load imbalance — the rate plan's whole
//     job is pulling that toward 1.0 so the barrier stops waiting on
//     one overloaded queue.
//
// Results are bit-identical across all of it (pinned by
// tests/integration/test_sim_shards.cpp); this bench measures speed.
//
//   ./build/bench/ext_sim_shards [--ticks=N] [--threads=N] [--json=FILE]
//
// --json writes a machine-readable summary; tools/run_ext_bench.sh simshards
// wraps this into BENCH_simshards.json for CI artifacts. Speedups track
// the host's core count: on a single-core machine the sharded loop
// cannot beat the serial one (~1.0x, the bench says so) — but the
// imbalance numbers are placement facts and hold on any host. The
// 64/128-domain points run a fraction of --ticks so the bench stays
// affordable on small CI runners.

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

constexpr std::size_t kDomainCounts[] = {1, 2, 4, 8};
constexpr std::size_t kSkewedDomainCounts[] = {8, 64, 128};
constexpr std::size_t kSkewedShards = 8;

struct Sample {
  std::size_t domains = 0;
  std::size_t shards = 0;
  double ticks_per_sec_serial = 0.0;
  double ticks_per_sec_sharded = 0.0;
  double speedup() const {
    return ticks_per_sec_serial > 0.0
               ? ticks_per_sec_sharded / ticks_per_sec_serial
               : 0.0;
  }
};

struct SkewedSample {
  std::size_t domains = 0;
  std::size_t shards = 0;
  std::int64_t ticks = 0;
  double ticks_per_sec_static = 0.0;
  double ticks_per_sec_rate = 0.0;
  double imbalance_static = 0.0;  ///< max/mean executed events per shard
  double imbalance_rate = 0.0;
  double speedup() const {
    return ticks_per_sec_static > 0.0
               ? ticks_per_sec_rate / ticks_per_sec_static
               : 0.0;
  }
};

/// Every 8th domain is hot (pure random writes, ~3x the executed
/// events of the light fileserver load on the rest).
std::string skewed_spec(std::size_t domain) {
  return domain % 8 == 0 ? "random:0.0" : "fileserver:instances=2,files=2";
}

/// Large domain counts cost ~domains per tick; scale the measured tick
/// count down so the 128-domain point stays affordable on a small CI
/// runner while the 8-domain point keeps the full resolution.
std::int64_t scaled_ticks(std::int64_t ticks, std::size_t domains) {
  if (domains >= 128) return std::max<std::int64_t>(ticks / 8, 10);
  if (domains >= 64) return std::max<std::int64_t>(ticks / 4, 16);
  return ticks;
}

/// Train `ticks` on `domains` replicated clusters with `sim_shards`
/// event queues (1 = serial, 0 = auto/per-domain); returns ticks/sec
/// and fills *shards_used.
double measure(std::size_t domains, std::int64_t ticks, std::size_t threads,
               std::size_t sim_shards, std::size_t* shards_used) {
  auto builder = core::Experiment::builder()
                     .seed(11)
                     .workload(benchutil::random_spec(0.5))
                     .warmup_seconds(2)
                     .worker_threads(threads)
                     .sim_shards(sim_shards);
  for (std::size_t d = 1; d < domains; ++d) {
    builder.add_cluster(benchutil::random_spec(0.5));
  }
  auto experiment = benchutil::build_or_die(std::move(builder));
  *shards_used = experiment->simulator().num_shards();
  // Fill the replay DB far enough that every measured tick runs full
  // minibatch training (the steady-state hot path, not the ramp-up).
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

/// Skewed scenario: train `ticks` on `domains` clusters (every 8th hot)
/// over kSkewedShards queues under `plan` ("static" or "rate"); returns
/// ticks/sec and fills *imbalance with the measured phase's max/mean
/// executed events per shard.
double measure_skewed(std::size_t domains, std::int64_t ticks,
                      std::size_t threads, const std::string& plan,
                      double* imbalance) {
  auto builder = core::Experiment::builder()
                     .seed(11)
                     .workload(skewed_spec(0))
                     .warmup_seconds(2)
                     .worker_threads(threads)
                     .sim_shards(kSkewedShards)
                     .shard_plan(plan);
  for (std::size_t d = 1; d < domains; ++d) builder.add_cluster(skewed_spec(d));
  auto experiment = benchutil::build_or_die(std::move(builder));
  // Fill the replay DB into steady-state training; this phase also gives
  // the rate planner a full phase of per-domain event counts to pack the
  // measured phase from. The big domain counts get a shorter fill: they
  // exist to expose placement and barrier costs, not DB ramp-up.
  experiment->run_training(
      static_cast<std::int64_t>(
          experiment->preset().capes.replay.ticks_per_observation) +
      (domains >= 64 ? 10 : 40));

  const auto start = std::chrono::steady_clock::now();
  const auto phase = experiment->run_training(ticks);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  *imbalance = phase.result.shard_imbalance();
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

  benchutil::print_header("sharded simulator event loop (ticks/sec, training)");
  std::printf("%lld training ticks per point, pool of %zu worker threads, "
              "%u hardware threads\n\n",
              static_cast<long long>(ticks), threads,
              std::thread::hardware_concurrency());
  std::printf("%8s %8s %14s %14s %9s\n", "domains", "shards", "serial t/s",
              "sharded t/s", "speedup");

  std::vector<Sample> samples;
  for (std::size_t domains : kDomainCounts) {
    Sample s;
    s.domains = domains;
    std::size_t shards_used = 0;
    s.ticks_per_sec_serial = measure(domains, ticks, threads, 1, &shards_used);
    s.ticks_per_sec_sharded = measure(domains, ticks, threads, 0, &s.shards);
    std::printf("%8zu %8zu %14.1f %14.1f %8.2fx\n", s.domains, s.shards,
                s.ticks_per_sec_serial, s.ticks_per_sec_sharded, s.speedup());
    std::fflush(stdout);
    samples.push_back(s);
  }
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("\nnote: single hardware thread — shard speedup is expected "
                "to be ~1.0 here; run on a multi-core host.\n");
  }

  benchutil::print_header(
      "skewed placement: static vs rate (every 8th domain hot)");
  std::printf("%8s %8s %7s %12s %12s %8s %10s %10s\n", "domains", "shards",
              "ticks", "static t/s", "rate t/s", "speedup", "imb static",
              "imb rate");
  std::vector<SkewedSample> skewed;
  for (std::size_t domains : kSkewedDomainCounts) {
    SkewedSample s;
    s.domains = domains;
    s.shards = kSkewedShards;
    s.ticks = scaled_ticks(ticks, domains);
    s.ticks_per_sec_static = measure_skewed(domains, s.ticks, threads,
                                            "static", &s.imbalance_static);
    s.ticks_per_sec_rate =
        measure_skewed(domains, s.ticks, threads, "rate", &s.imbalance_rate);
    std::printf("%8zu %8zu %7lld %12.1f %12.1f %7.2fx %10.2f %10.2f\n",
                s.domains, s.shards, static_cast<long long>(s.ticks),
                s.ticks_per_sec_static, s.ticks_per_sec_rate, s.speedup(),
                s.imbalance_static, s.imbalance_rate);
    std::fflush(stdout);
    skewed.push_back(s);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_sim_shards\",\n"
        << "  \"ticks\": " << ticks << ",\n"
        << "  \"pool_threads\": " << threads << ",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "    {\"scenario\": \"uniform\", \"domains\": %zu, "
                    "\"shards\": %zu, "
                    "\"ticks_per_sec_serial\": %.2f, "
                    "\"ticks_per_sec_sharded\": %.2f, \"speedup\": %.3f},\n",
                    s.domains, s.shards, s.ticks_per_sec_serial,
                    s.ticks_per_sec_sharded, s.speedup());
      out << line;
    }
    for (std::size_t i = 0; i < skewed.size(); ++i) {
      const SkewedSample& s = skewed[i];
      char line[320];
      std::snprintf(line, sizeof(line),
                    "    {\"scenario\": \"skewed\", \"domains\": %zu, "
                    "\"shards\": %zu, "
                    "\"ticks_per_sec_static\": %.2f, "
                    "\"ticks_per_sec_rate\": %.2f, \"speedup\": %.3f, "
                    "\"shard_imbalance_static\": %.3f, "
                    "\"shard_imbalance_rate\": %.3f}%s\n",
                    s.domains, s.shards, s.ticks_per_sec_static,
                    s.ticks_per_sec_rate, s.speedup(), s.imbalance_static,
                    s.imbalance_rate, i + 1 < skewed.size() ? "," : "");
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
