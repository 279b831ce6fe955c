// Control-network transport bench: per-tick overhead of the bus layer.
// Measures training ticks/sec of one experiment under three transports —
// the sync default (immediate delivery; the pre-bus direct-call
// behavior), sim at drop=0 (every message queued, delayed one tick, and
// drained — the full bookkeeping without any loss), and sim with jitter
// (out-of-order arrival across senders). drop stays 0 throughout so all
// three do identical DRL work and the delta is pure transport cost.
//
//   ./build/bench/ext_transport [--ticks=N] [--threads=N] [--json=FILE]
//
// --json writes a machine-readable summary; tools/run_ext_bench.sh transport
// wraps this into BENCH_transport.json for CI artifacts.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "util/parse.hpp"

using namespace capes;
using util::parse_flag;

namespace {

struct Case {
  const char* label;
  const char* spec;  ///< nullptr = default build (no .transport() call)
};

constexpr Case kCases[] = {
    {"sync (default)", nullptr},
    {"sim drop=0", "sim:latency_ticks=1"},
    {"sim jitter=3", "sim:latency_ticks=1,jitter=3"},
};

struct Sample {
  std::string label;
  double ticks_per_sec = 0.0;
  std::uint64_t messages_late = 0;
};

double measure(const char* spec, std::int64_t ticks, std::size_t threads,
               std::uint64_t* late) {
  auto builder = core::Experiment::builder()
                     .seed(11)
                     .workload(benchutil::random_spec(0.5))
                     .warmup_seconds(2)
                     .worker_threads(threads);
  if (spec != nullptr) builder.transport(spec);
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
  *late = phase.result.messages_late;
  return static_cast<double>(ticks) / elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t ticks = 400;
  std::size_t threads = 0;
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
      if (!util::parse_i64(value, &parsed) || parsed < 0) {
        std::fprintf(stderr, "--threads must be >= 0, got '%s'\n",
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

  benchutil::print_header("control-network transport overhead (ticks/sec)");
  std::printf("%lld training ticks per point, %zu worker threads\n\n",
              static_cast<long long>(ticks), threads);
  std::printf("%-18s %14s %12s %10s\n", "transport", "ticks/sec", "vs sync",
              "late msgs");

  std::vector<Sample> samples;
  double sync_rate = 0.0;
  for (const Case& c : kCases) {
    Sample s;
    s.label = c.label;
    s.ticks_per_sec = measure(c.spec, ticks, threads, &s.messages_late);
    if (samples.empty()) sync_rate = s.ticks_per_sec;
    std::printf("%-18s %14.1f %11.3fx %10llu\n", s.label.c_str(),
                s.ticks_per_sec,
                sync_rate > 0.0 ? s.ticks_per_sec / sync_rate : 0.0,
                static_cast<unsigned long long>(s.messages_late));
    std::fflush(stdout);
    samples.push_back(std::move(s));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_transport\",\n"
        << "  \"ticks\": " << ticks << ",\n"
        << "  \"threads\": " << threads << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "    {\"transport\": \"%s\", \"ticks_per_sec\": %.2f, "
                    "\"relative_to_sync\": %.4f, \"messages_late\": %llu}%s\n",
                    s.label.c_str(), s.ticks_per_sec,
                    sync_rate > 0.0 ? s.ticks_per_sec / sync_rate : 0.0,
                    static_cast<unsigned long long>(s.messages_late),
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
