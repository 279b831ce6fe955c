// Fault-injection bench: training ticks/sec with the injector off vs a
// busy fault regime (OST crashes, straggler disks and partition windows
// all firing), at 1/4/8 control domains on the sharded event loop. The
// delta is the whole cost of the fault seam — pure-hash fate draws at
// every sampling tick, the transport wrap, and the degraded-tick
// accounting — which must stay a small fraction of a tick. Also reports
// the injected-fault totals so a rate change (or a fate-hash regression
// that stops faults firing) is visible in the artifact, not just in the
// runtime.
//
// Faults-off runs are bit-identical to builds without the seam, and
// faulted runs are bit-identical at any shard/thread count (pinned by
// tests/integration/test_faults.cpp); this bench measures speed.
//
//   ./build/bench/ext_faults [--ticks=N] [--threads=N] [--json=FILE]
//
// --json writes a machine-readable summary; tools/run_ext_bench.sh faults
// wraps this into BENCH_faults.json for CI artifacts.

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

constexpr std::size_t kDomainCounts[] = {1, 4, 8};

constexpr char kBusyFaults[] =
    "faults:ost_crash=0.02,restart_ticks=8,straggler=0.05,slow_factor=6,"
    "straggler_ticks=12,partition=0.02,partition_ticks=4";

struct Sample {
  std::size_t domains = 0;
  double ticks_per_sec_off = 0.0;
  double ticks_per_sec_faulted = 0.0;
  std::uint64_t faults_injected = 0;
  std::uint64_t ticks_degraded = 0;
  double overhead_percent() const {
    return ticks_per_sec_faulted > 0.0
               ? (ticks_per_sec_off / ticks_per_sec_faulted - 1.0) * 100.0
               : 0.0;
  }
};

/// Train `ticks` on `domains` replicated clusters (sharded per domain on
/// the worker pool) with `faults` ("" = off); returns ticks/sec and adds
/// the phase's fault counters into the sample.
double measure(std::size_t domains, std::int64_t ticks, std::size_t threads,
               const std::string& faults, Sample* s) {
  auto builder = core::Experiment::builder()
                     .seed(11)
                     .workload(benchutil::random_spec(0.5))
                     .warmup_seconds(2)
                     .worker_threads(threads)
                     .sim_shards(0);
  for (std::size_t d = 1; d < domains; ++d) {
    builder.add_cluster(benchutil::random_spec(0.5));
  }
  if (!faults.empty()) builder.faults(faults);
  auto experiment = benchutil::build_or_die(std::move(builder));
  // Fill the replay DB far enough that every measured tick runs full
  // minibatch training (the steady-state hot path, not the ramp-up).
  experiment->run_training(
      static_cast<std::int64_t>(
          experiment->preset().capes.replay.ticks_per_observation) +
      40);

  const auto start = std::chrono::steady_clock::now();
  const auto phase = experiment->run_training(ticks);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (!faults.empty()) {
    s->faults_injected = phase.result.faults_injected;
    s->ticks_degraded = phase.result.ticks_degraded;
  }
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

  benchutil::print_header("fault injection (ticks/sec, training)");
  std::printf("%lld training ticks per point, pool of %zu worker threads, "
              "%u hardware threads\nregime: %s\n\n",
              static_cast<long long>(ticks), threads,
              std::thread::hardware_concurrency(), kBusyFaults);
  std::printf("%8s %12s %14s %9s %8s %9s\n", "domains", "off t/s",
              "faulted t/s", "overhead", "faults", "degraded");

  std::vector<Sample> samples;
  for (std::size_t domains : kDomainCounts) {
    Sample s;
    s.domains = domains;
    s.ticks_per_sec_off = measure(domains, ticks, threads, "", &s);
    s.ticks_per_sec_faulted = measure(domains, ticks, threads, kBusyFaults, &s);
    std::printf("%8zu %12.1f %14.1f %8.1f%% %8llu %9llu\n", s.domains,
                s.ticks_per_sec_off, s.ticks_per_sec_faulted,
                s.overhead_percent(),
                static_cast<unsigned long long>(s.faults_injected),
                static_cast<unsigned long long>(s.ticks_degraded));
    std::fflush(stdout);
    samples.push_back(s);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_faults\",\n"
        << "  \"ticks\": " << ticks << ",\n"
        << "  \"pool_threads\": " << threads << ",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      char line[320];
      std::snprintf(line, sizeof(line),
                    "    {\"domains\": %zu, "
                    "\"ticks_per_sec_off\": %.2f, "
                    "\"ticks_per_sec_faulted\": %.2f, "
                    "\"faults_injected\": %llu, "
                    "\"ticks_degraded\": %llu}%s\n",
                    s.domains, s.ticks_per_sec_off, s.ticks_per_sec_faulted,
                    static_cast<unsigned long long>(s.faults_injected),
                    static_cast<unsigned long long>(s.ticks_degraded),
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
