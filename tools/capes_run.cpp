// capes_run — command-line driver for the simulated evaluation workflow.
//
// The C++ analogue of the prototype's service scripts (§A.3): pick a
// workload from the registry, optionally load a conf file, run the §A.4
// evaluation workflow (train -> baseline -> tuned) through the
// core::Experiment facade, and optionally dump per-tick CSVs and a model
// checkpoint. `--list-workloads` prints every registered workload with
// its spec syntax. With --transport=tcp:host=H,port=N it is the agent
// process of a distributed run (§3.3): the cluster and its agents stay
// here, the Interface Daemon + DRL Engine run in capes_daemond.
//
// Every flag is a row of kFlags: util::parse_flags reads them and
// util::flag_usage prints the synopsis from the same rows.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "bus/transport.hpp"
#include "core/experiment.hpp"
#include "core/remote_brain.hpp"
#include "sim/fault.hpp"
#include "sim/shard_planner.hpp"
#include "util/options.hpp"
#include "workload/registry.hpp"

using namespace capes;

namespace {

struct Args {
  /// Repeatable --workload=: one control domain per spec, in flag order.
  /// Empty means the default single "random:0.1" domain.
  std::vector<std::string> workloads;
  /// --clusters=N replicates a single workload spec into N domains.
  std::int64_t clusters = 1;
  // Unset optionals mean "the preset/conf decides"; an explicit flag wins
  // over a conf file (so --threads=0 can force the single-threaded path).
  std::optional<std::int64_t> threads;
  /// 0 = auto = one event queue per control domain.
  std::optional<std::size_t> sim_shards;
  std::optional<std::string> shard_plan;
  std::optional<std::string> faults;
  std::optional<std::string> transport;
  std::optional<std::string> learner;
  std::string conf;
  std::int64_t train_ticks = -1;  ///< -1 = the preset default
  std::int64_t eval_ticks = -1;
  std::string csv_prefix;
  std::string model_out;
  std::string model_in;
  std::string capture;
  std::optional<std::uint64_t> seed;
  bool monitor_servers = false;
  bool tune_write_cache = false;
  bool list_workloads = false;
  bool help = false;
};

constexpr std::string_view kAuto[] = {"auto"};

// Specs with a grammar of their own are checked here too, so a bad one is
// a usage error (exit 2) before any experiment work starts.
constexpr util::Option<Args> kFlags[] = {
    {.key = "--workload", .field = CAPES_FIELD(workloads), .form = "SPEC"},
    {"--clusters", CAPES_FIELD(clusters), util::at_least(1)},
    {"--threads", CAPES_FIELD(threads), util::at_least(0)},
    {.key = "--sim-shards",
     .field = CAPES_FIELD(sim_shards),
     .range = util::at_least(1),
     .names = kAuto,
     .form = "auto|N"},
    {"--shard-plan", CAPES_FIELD(shard_plan), {}, sim::kShardPlanNames},
    {.key = "--faults",
     .field = CAPES_FIELD(faults),
     .form = "off|faults[:OPTS]",
     .check = util::parses_as<sim::FaultPlan, sim::parse_fault_spec>},
    {.key = "--transport",
     .field = CAPES_FIELD(transport),
     .form = "sync|sim[:OPTS]|tcp:OPTS",
     .check = util::parses_as<bus::TransportOptions, bus::parse_transport_spec>},
    {"--learner", CAPES_FIELD(learner), {}, core::kLearnerModeNames},
    {.key = "--conf", .field = CAPES_FIELD(conf), .form = "FILE"},
    {"--train-ticks", CAPES_FIELD(train_ticks), util::at_least(0)},
    {"--eval-ticks", CAPES_FIELD(eval_ticks), util::at_least(0)},
    {.key = "--csv", .field = CAPES_FIELD(csv_prefix), .form = "PREFIX"},
    {.key = "--model", .field = CAPES_FIELD(model_out), .form = "FILE"},
    {.key = "--load-model", .field = CAPES_FIELD(model_in), .form = "FILE"},
    {.key = "--capture", .field = CAPES_FIELD(capture), .form = "FILE"},
    {"--seed", CAPES_FIELD(seed)},
    {"--monitor-servers", CAPES_FIELD(monitor_servers)},
    {"--tune-write-cache", CAPES_FIELD(tune_write_cache)},
    {"--list-workloads", CAPES_FIELD(list_workloads)},
    {"--help", CAPES_FIELD(help)},
};

void print_usage() {
  std::printf(
      "%s\n"
      "Each --workload SPEC names a registered workload with optional\n"
      ":spec args (--list-workloads prints them). Repeat --workload to tune\n"
      "several clusters (one control domain each) with one shared DRL\n"
      "brain, or use --clusters=N to replicate a single spec across N\n"
      "identically configured clusters. --threads=N fans the per-tick\n"
      "sampling/training hot path out over N worker threads.\n"
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
      "realization independently of --seed). --transport=tcp makes this\n"
      "process the agent side of a distributed run: the DRL brain lives in\n"
      "a separate capes_daemond, e.g.\n"
      "  --transport=tcp:host=127.0.0.1,port=4890,connect_timeout_ms=5000\n"
      "(port in [1, 65535]; the connection retries with capped backoff for\n"
      "connect_timeout_ms, so either process may start first).\n"
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
      util::flag_usage<Args>(kFlags, "capes_run").c_str());
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
  std::string error;
  if (!util::parse_flags(kFlags, argc, argv, &args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    print_usage();
    return 2;
  }
  if (args.help) {
    print_usage();
    return 0;
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
    // Anything shed at the endpoint or lost to a dead link counts as
    // dropped; a healthy loopback run prints zeros and "alive".
    const core::BrainClient* client = experiment->system().brain_client();
    std::printf("control network (tcp): %llu messages dropped, link %s\n",
                static_cast<unsigned long long>(dropped),
                client != nullptr && client->alive() ? "alive" : "dead");
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
