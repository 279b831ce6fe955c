// capes_run — command-line driver for the simulated evaluation workflow.
//
// The C++ analogue of the prototype's service scripts (§A.3): pick a
// workload from the registry, optionally load a conf file, run the §A.4
// evaluation workflow (train -> baseline -> tuned) through the
// core::Experiment facade, and optionally dump per-tick CSVs and a model
// checkpoint. `--list-workloads` prints every registered workload with
// its spec syntax.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "bus/transport.hpp"
#include "core/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/shard_planner.hpp"
#include "util/options.hpp"
#include "util/parse.hpp"
#include "workload/registry.hpp"

using namespace capes;

namespace {

struct Args {
  /// Repeatable --workload=: one control domain per spec, in flag order.
  /// Empty means the default single "random:0.1" domain.
  std::vector<std::string> workloads;
  /// --clusters=N replicates a single workload spec into N domains.
  std::int64_t clusters = 1;
  /// --threads=N: worker threads for the per-tick hot path (0 = off).
  /// Unset means "the preset/conf decides", so an explicit --threads=0
  /// can force the single-threaded path over a conf file's setting.
  std::optional<std::int64_t> threads;
  /// --transport=sync|sim[:latency_ticks=..,jitter=..,drop=..,seed=..].
  /// Unset means "the preset/conf decides" (sync by default).
  std::optional<std::string> transport;
  /// --learner=sync|async: where DRL training steps run. Unset means
  /// "the preset/conf decides" (sync by default).
  std::optional<std::string> learner;
  /// --sim-shards=auto|N: per-domain simulator event queues (0 = auto =
  /// one per control domain). Unset means "the preset/conf decides"
  /// (the serial single-queue loop by default).
  std::optional<std::size_t> sim_shards;
  /// --shard-plan=static|rate: how control domains are packed onto the
  /// simulator shards. Unset means "the preset/conf decides" (static
  /// round-robin by default).
  std::optional<std::string> shard_plan;
  /// --faults=off|faults[:ost_crash=..,...]: deterministic fault
  /// injection. Unset means "the preset/conf decides" (off by default).
  std::optional<std::string> faults;
  std::string conf;
  std::string csv_prefix;
  std::string model_out;
  std::string model_in;
  /// --capture=FILE: flight-record every daemon-boundary message for
  /// offline replay with capes_replay ("" = off).
  std::string capture;
  std::int64_t train_ticks = -1;
  std::int64_t eval_ticks = -1;
  /// Unset means "the preset/conf decides"; an explicit --seed wins over
  /// a conf file's seed keys (ExperimentBuilder::seed semantics).
  std::optional<std::uint64_t> seed;
  bool monitor_servers = false;
  bool tune_write_cache = false;
  bool list_workloads = false;
};

using util::parse_flag;

/// Strict numeric flag: "--train-ticks=abc" is an error, not 0.
template <typename T, bool (*Parse)(std::string_view, T*)>
bool parse_numeric_flag(const char* flag_name, const std::string& value,
                        T* out) {
  if (Parse(value, out)) return true;
  std::fprintf(stderr, "invalid value for %s: '%s'\n", flag_name,
               value.c_str());
  return false;
}

/// Tick-count flag: strict and non-negative (-1 stays an internal
/// "use the preset default" sentinel, never a user input).
bool parse_ticks_flag(const char* flag_name, const std::string& value,
                      std::int64_t* out) {
  if (!parse_numeric_flag<std::int64_t, util::parse_i64>(flag_name, value, out))
    return false;
  if (*out < 0) {
    std::fprintf(stderr, "%s must be >= 0, got %s\n", flag_name, value.c_str());
    return false;
  }
  return true;
}

enum class ParseOutcome { kOk, kError, kHelp };

ParseOutcome parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--workload", &value)) {
      args->workloads.push_back(value);
    } else if (parse_flag(argv[i], "--clusters", &value)) {
      if (!parse_numeric_flag<std::int64_t, util::parse_i64>("--clusters",
                                                             value,
                                                             &args->clusters))
        return ParseOutcome::kError;
      if (args->clusters < 1) {
        std::fprintf(stderr, "--clusters must be >= 1, got %s\n",
                     value.c_str());
        return ParseOutcome::kError;
      }
    } else if (parse_flag(argv[i], "--threads", &value)) {
      std::int64_t threads = 0;
      if (!parse_numeric_flag<std::int64_t, util::parse_i64>("--threads",
                                                             value, &threads))
        return ParseOutcome::kError;
      if (threads < 0) {
        std::fprintf(stderr, "--threads must be >= 0, got %s\n",
                     value.c_str());
        return ParseOutcome::kError;
      }
      args->threads = threads;
    } else if (parse_flag(argv[i], "--transport", &value)) {
      // Validate eagerly so an unknown scheme or malformed option list is
      // a usage error (exit 2) before any experiment work starts.
      bus::TransportOptions parsed;
      std::string transport_error;
      if (!bus::parse_transport_spec(value, &parsed, &transport_error)) {
        std::fprintf(stderr, "invalid value for --transport: %s\n",
                     transport_error.c_str());
        return ParseOutcome::kError;
      }
      args->transport = value;
    } else if (parse_flag(argv[i], "--learner", &value)) {
      if (!util::find_name(core::kLearnerModeNames, value)) {
        std::fprintf(stderr,
                     "invalid value for --learner: '%s' (expected %s)\n",
                     value.c_str(),
                     util::join_names(core::kLearnerModeNames).c_str());
        return ParseOutcome::kError;
      }
      args->learner = value;
    } else if (parse_flag(argv[i], "--sim-shards", &value)) {
      if (value == "auto") {
        args->sim_shards = 0;  // ExperimentBuilder: one shard per domain
      } else {
        std::uint64_t shards = 0;
        if (!parse_numeric_flag<std::uint64_t, util::parse_u64>(
                "--sim-shards", value, &shards))
          return ParseOutcome::kError;
        if (shards < 1) {
          std::fprintf(stderr, "--sim-shards must be >= 1 or 'auto', got %s\n",
                       value.c_str());
          return ParseOutcome::kError;
        }
        args->sim_shards = static_cast<std::size_t>(shards);
      }
    } else if (parse_flag(argv[i], "--shard-plan", &value)) {
      sim::ShardPlanKind kind;
      std::string plan_error;
      if (!sim::parse_shard_plan_spec(value, &kind, &plan_error)) {
        std::fprintf(stderr, "invalid value for --shard-plan: %s\n",
                     plan_error.c_str());
        return ParseOutcome::kError;
      }
      args->shard_plan = value;
    } else if (parse_flag(argv[i], "--faults", &value)) {
      // Validate eagerly, like --transport: an unknown fault kind or an
      // out-of-range rate is a usage error (exit 2) before any
      // experiment work starts.
      sim::FaultPlan parsed;
      std::string fault_error;
      if (!sim::parse_fault_spec(value, &parsed, &fault_error)) {
        std::fprintf(stderr, "invalid value for --faults: %s\n",
                     fault_error.c_str());
        return ParseOutcome::kError;
      }
      args->faults = value;
    } else if (parse_flag(argv[i], "--conf", &value)) {
      args->conf = value;
    } else if (parse_flag(argv[i], "--csv", &value)) {
      args->csv_prefix = value;
    } else if (parse_flag(argv[i], "--capture", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "--capture needs a file path\n");
        return ParseOutcome::kError;
      }
      args->capture = value;
    } else if (parse_flag(argv[i], "--model", &value)) {
      args->model_out = value;
    } else if (parse_flag(argv[i], "--load-model", &value)) {
      args->model_in = value;
    } else if (parse_flag(argv[i], "--train-ticks", &value)) {
      if (!parse_ticks_flag("--train-ticks", value, &args->train_ticks))
        return ParseOutcome::kError;
    } else if (parse_flag(argv[i], "--eval-ticks", &value)) {
      if (!parse_ticks_flag("--eval-ticks", value, &args->eval_ticks))
        return ParseOutcome::kError;
    } else if (parse_flag(argv[i], "--seed", &value)) {
      std::uint64_t seed = 0;
      if (!parse_numeric_flag<std::uint64_t, util::parse_u64>("--seed", value,
                                                              &seed))
        return ParseOutcome::kError;
      args->seed = seed;
    } else if (std::strcmp(argv[i], "--monitor-servers") == 0) {
      args->monitor_servers = true;
    } else if (std::strcmp(argv[i], "--tune-write-cache") == 0) {
      args->tune_write_cache = true;
    } else if (std::strcmp(argv[i], "--list-workloads") == 0) {
      args->list_workloads = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return ParseOutcome::kHelp;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return ParseOutcome::kError;
    }
  }
  return ParseOutcome::kOk;
}

std::string registered_names_joined() {
  std::string joined;
  for (const auto& name : workload::Registry::instance().names()) {
    if (!joined.empty()) joined += '|';
    joined += name;
  }
  return joined;
}

void print_usage() {
  std::printf(
      "usage: capes_run [--workload=%s (with optional :spec args)]...\n"
      "                 [--clusters=N] [--threads=N] [--sim-shards=auto|N]\n"
      "                 [--shard-plan=static|rate]\n"
      "                 [--faults=off|faults[:ost_crash=P,restart_ticks=N,"
      "straggler=P,\n"
      "                           slow_factor=X,straggler_ticks=N,partition=P,"
      "\n"
      "                           partition_ticks=N,seed=N]]\n"
      "                 [--transport=sync|sim[:latency_ticks=N,jitter=X,"
      "drop=P,seed=N]\n"
      "                              |tcp:host=H,port=N[,connect_timeout_ms=N]]"
      "\n"
      "                 [--learner=sync|async]\n"
      "                 [--conf=FILE] [--train-ticks=N] [--eval-ticks=N]\n"
      "                 [--csv=PREFIX] [--model=FILE] [--load-model=FILE]\n"
      "                 [--capture=FILE]\n"
      "                 [--seed=N] [--monitor-servers] [--tune-write-cache]\n"
      "                 [--list-workloads] [--help]\n"
      "\n"
      "Repeat --workload to tune several clusters (one control domain each)\n"
      "with one shared DRL brain, or use --clusters=N to replicate a single\n"
      "spec across N identically configured clusters. --threads=N fans the\n"
      "per-tick sampling/training hot path out over N worker threads.\n"
      "--sim-shards shards the simulator event loop itself: auto gives\n"
      "every control domain its own event queue, N caps the queue count\n"
      "(1 = the serial loop), and the queues advance concurrently on the\n"
      "--threads pool between sampling ticks — same results, faster on\n"
      "multi-core hosts. --shard-plan picks the domain placement:\n"
      "static round-robins domains over the queues (the default); rate\n"
      "re-packs them at every phase boundary by last-phase observed event\n"
      "rate (greedy LPT), which evens out skewed workloads. Placement\n"
      "derives only from deterministic event counts, so results stay\n"
      "bit-identical across plans, shard counts and thread counts\n"
      "(conf: capes.sim.shard_plan).\n"
      "--transport=sync delivers every agent<->daemon message within its\n"
      "tick (the default). --transport=sim puts the hops on a simulated\n"
      "control network with seeded latency/jitter/drop, e.g.\n"
      "  --transport=sim:latency_ticks=2,jitter=2,drop=0.05,seed=7\n"
      "(drop in [0,1); latency_ticks/jitter >= 0; seed pins the network\n"
      "realization independently of --seed). --transport=tcp connects the\n"
      "agents to a separate capes_daemond process hosting the DRL brain\n"
      "(capes_agentd wraps this spec behind a --daemon=HOST:PORT flag).\n"
      "--faults injects deterministic failures into the simulated target\n"
      "systems: ost_crash crashes an OST per tick with probability P (it\n"
      "restarts after restart_ticks; queued and in-flight I/O is rejected\n"
      "while down), straggler slows a disk by slow_factor for\n"
      "straggler_ticks, and partition silently drops a control domain's\n"
      "agent traffic for partition_ticks (surfacing as dropped messages),\n"
      "e.g.\n"
      "  --faults=faults:ost_crash=0.001,straggler=0.01,slow_factor=8\n"
      "(rates in [0,1); windows >= 1; seed pins the fault realization\n"
      "independently of --seed). Every fate is a pure hash of (seed, kind,\n"
      "node, tick), so a seeded faulted run is bit-identical at any\n"
      "--sim-shards/--threads count and under --shard-plan=rate; faults\n"
      "compose with --transport=sim drops. Rejected with --transport=tcp\n"
      "(conf: capes.sim.faults.*).\n"
      "--learner=async moves DRL training to a dedicated learner thread\n"
      "that overlaps the next tick's simulation; actions and weights stay\n"
      "bit-identical to --learner=sync (the default) at the same seed.\n"
      "--capture=FILE flight-records every daemon-boundary message (PI\n"
      "status, actions, broadcasts) plus rewards and phase markers; replay\n"
      "the capture offline with capes_replay (conf: capes.capture.path).\n"
      "See docs/CONFIG.md for the full flag and conf-key reference.\n",
      registered_names_joined().c_str());
}

void print_workloads() {
  const auto& registry = workload::Registry::instance();
  std::printf("registered workloads:\n");
  for (const auto& name : registry.names()) {
    std::printf("  %-12s %s\n", name.c_str(),
                registry.spec_help(name).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  switch (parse_args(argc, argv, &args)) {
    case ParseOutcome::kOk:
      break;
    case ParseOutcome::kHelp:
      print_usage();
      return 0;
    case ParseOutcome::kError:
      print_usage();
      return 2;
  }
  if (args.list_workloads) {
    print_workloads();
    return 0;
  }

  if (args.clusters > 1 && args.workloads.size() > 1) {
    std::fprintf(stderr,
                 "--clusters replicates a single --workload spec; pass either "
                 "--clusters=N or repeated --workload flags, not both\n");
    return 2;
  }
  std::vector<std::string> specs =
      args.workloads.empty() ? std::vector<std::string>{"random:0.1"}
                             : args.workloads;
  if (args.clusters > 1) {
    // Copy before assign: passing specs[0] itself would hand assign() a
    // reference into the container it is rewriting.
    const std::string replicated = specs[0];
    specs.assign(static_cast<std::size_t>(args.clusters), replicated);
  }

  auto builder = core::Experiment::builder()
                     .workload(specs[0])
                     .monitor_servers(args.monitor_servers)
                     .tune_write_cache(args.tune_write_cache)
                     .train_ticks(args.train_ticks)
                     .eval_ticks(args.eval_ticks);
  for (std::size_t i = 1; i < specs.size(); ++i) builder.add_cluster(specs[i]);
  if (args.threads) {
    builder.worker_threads(static_cast<std::size_t>(*args.threads));
  }
  if (args.sim_shards) builder.sim_shards(*args.sim_shards);
  if (args.shard_plan) builder.shard_plan(*args.shard_plan);
  if (args.faults) builder.faults(*args.faults);
  if (args.transport) builder.transport(*args.transport);
  if (args.learner) builder.learner(*args.learner);
  if (args.seed) builder.seed(*args.seed);
  if (!args.capture.empty()) builder.capture(args.capture);
  if (!args.conf.empty()) builder.config_file(args.conf);
  if (!args.csv_prefix.empty()) {
    // Like core::csv_phase_sink, but confirming each file on stdout — and
    // only when it was actually written.
    builder.on_phase_end([&args](const core::PhaseReport& report) {
      const std::string path =
          args.csv_prefix + "_" + report.label + ".csv";
      std::ofstream out(path);
      out << core::run_result_csv(report.result);
      if (out) {
        std::printf("  wrote %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "  cannot write %s\n", path.c_str());
      }
    });
  }

  std::string error;
  auto experiment = builder.build(&error);
  if (!experiment) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!args.model_in.empty()) {
    if (!experiment->load_model(args.model_in)) {
      std::fprintf(stderr, "cannot load model %s\n", args.model_in.c_str());
      return 1;
    }
    std::printf("loaded model from %s\n", args.model_in.c_str());
  }

  const std::int64_t train = experiment->default_train_ticks();
  std::printf("workload %s, %lld training ticks, %lld eval ticks, seed %llu\n",
              experiment->workload_name().c_str(),
              static_cast<long long>(train),
              static_cast<long long>(experiment->default_eval_ticks()),
              static_cast<unsigned long long>(
                  experiment->preset().capes.engine.dqn.seed));
  if (experiment->num_domains() > 1 && !experiment->system().remote_brain()) {
    std::printf("%zu control domains, observation size %zu, %zu actions\n",
                experiment->num_domains(),
                experiment->system().replay().observation_size(),
                experiment->system().action_space().num_actions());
  }
  if (experiment->simulator().num_shards() > 1) {
    std::printf("simulator event loop sharded into %zu queues across %zu "
                "domains\n",
                experiment->simulator().num_shards(),
                experiment->num_domains());
    const auto& plan = experiment->system().shard_plan();
    std::printf("shard plan: %s -- %zu domains -> %zu queues, "
                "max/mean load %.2f\n",
                sim::shard_plan_name(experiment->system().shard_plan_kind()),
                experiment->num_domains(),
                experiment->simulator().num_shards(), plan.max_over_mean());
  }

  if (train > 0) {
    std::printf("training...\n");
    const auto training = experiment->run_training();
    std::printf("  %zu train steps, session throughput %s MB/s\n",
                training.result.train_steps,
                training.throughput.to_string().c_str());
  }

  const auto baseline = experiment->run_baseline();
  std::printf("baseline: %s MB/s, latency %s ms\n",
              baseline.throughput.to_string().c_str(),
              baseline.latency.to_string().c_str());

  const auto tuned = experiment->run_tuned();
  const auto& report = experiment->report();
  std::printf("tuned:    %s MB/s, latency %s ms  (%+.1f%%)\n",
              tuned.throughput.to_string().c_str(),
              tuned.latency.to_string().c_str(),
              report.tuned_gain_percent());

  std::printf("final parameters:");
  for (std::size_t i = 0; i < report.parameter_names.size(); ++i) {
    std::printf(" %s=%.0f", report.parameter_names[i].c_str(),
                report.final_parameters[i]);
  }
  std::printf("\n");

  if (experiment->preset().capes.transport.kind == bus::TransportKind::kSim) {
    std::uint64_t dropped = 0, late = 0;
    for (const auto& phase : report.phases) {
      dropped += phase.result.messages_dropped;
      late += phase.result.messages_late;
    }
    std::printf("control network (sim): %llu messages dropped, %llu late\n",
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(late));
  }

  if (experiment->simulator().num_shards() > 1) {
    // Event-count based (deterministic), so CI can compare this line
    // across runs; the strip lists only drop it when comparing static
    // against rate placements.
    std::printf("shard imbalance (events, max/mean):");
    for (const auto& phase : report.phases) {
      std::printf(" %s %.2f", phase.label.c_str(),
                  phase.result.shard_imbalance());
    }
    std::printf(" -- %zu replans\n", experiment->system().shard_replans());
  }

  // Gated on the plan, not on whether anything fired: faults-off output
  // stays byte-identical to pre-fault builds, and a quiet faulted run
  // still reports its zeros.
  if (experiment->preset().capes.faults.enabled()) {
    std::uint64_t injected = 0, crashes = 0, stragglers = 0, partitions = 0,
                  degraded = 0;
    for (const auto& phase : report.phases) {
      injected += phase.result.faults_injected;
      crashes += phase.result.ost_crashes;
      stragglers += phase.result.stragglers;
      partitions += phase.result.partitions;
      degraded += phase.result.ticks_degraded;
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
      std::printf(" %s %zu", phase.label.c_str(), phase.result.regime_shifts);
    }
    std::printf("\n");
  }

  if (experiment->preset().capes.transport.kind == bus::TransportKind::kTcp) {
    std::uint64_t dropped = 0;
    for (const auto& phase : report.phases) {
      dropped += phase.result.messages_dropped;
    }
    std::printf("control network (tcp): %llu messages dropped\n",
                static_cast<unsigned long long>(dropped));
  }

  // Always printed: the determinism handle the capture/replay round trip
  // (and the CI cmp smokes) compare across runs. Remote-safe: under a
  // tcp: transport these come from the daemon's phase-end ack.
  std::printf("training fingerprint %08x (%zu train steps)\n",
              experiment->system().training_fingerprint(),
              experiment->system().total_train_steps());

  if (auto* writer = experiment->system().capture_writer()) {
    // Close first so the byte count reflects the fully drained sink (and
    // the header's drop count is patched before anyone reads the file).
    writer->close();
    std::printf("capture: %llu records (%llu dropped, %llu bytes) -> %s\n",
                static_cast<unsigned long long>(writer->records_logged()),
                static_cast<unsigned long long>(writer->records_dropped()),
                static_cast<unsigned long long>(writer->bytes_written()),
                experiment->preset().capes.capture_path.c_str());
  }

  if (!args.model_out.empty() && experiment->save_model(args.model_out)) {
    std::printf("model saved to %s\n", args.model_out.c_str());
  }
  return 0;
}
