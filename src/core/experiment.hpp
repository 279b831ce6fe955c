#pragma once
// The front door to CAPES: Experiment owns the whole object graph the
// paper's evaluation needs — simulated clock, target systems, workloads,
// and the CapesSystem control loop — and runs the Appendix A.4 workflow
// (train -> baseline -> tuned) as structured phases. Construction goes
// through a fluent builder:
//
//   auto exp = core::Experiment::builder()
//                  .workload("fileserver")
//                  .seed(42)
//                  .tune_write_cache()
//                  .on_phase_end(core::csv_phase_sink("out"))
//                  .build(&error);
//   auto report = exp->run();
//
// Workload specs resolve through workload::Registry, so new workloads
// plug in without touching this facade. Custom target systems skip the
// bundled Lustre cluster entirely: pass .adapter(my_system) instead of
// .workload(...) (see examples/quickstart.cpp).
//
// Multi-cluster experiments add control domains with .add_cluster():
//
//   auto exp = core::Experiment::builder()
//                  .workload("random:0.1")       // domain 0
//                  .add_cluster("seqwrite")      // domain 1, own cluster
//                  .add_cluster(my_adapter)      // domain 2, custom system
//                  .worker_threads(4)            // parallel sampling fan-in
//                  .build(&error);
//
// Every domain gets its own simulated cluster (bundled ones) or adapter,
// all driven by one simulator and tuned by one shared DRL brain (see
// core/control_domain.hpp). A single-cluster build through the old API
// is bit-identical to the pre-domain facade at the same seed.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/capes_system.hpp"
#include "core/objective.hpp"
#include "core/presets.hpp"
#include "lustre/cluster.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace capes::core {

class Experiment;

/// One completed phase: the raw per-tick data plus its Pilot-style
/// analysis, ready for printing or sinking.
struct PhaseReport {
  RunPhase phase = RunPhase::kIdle;
  std::string label;     ///< phase_name(phase)
  /// Active workload names, "+"-joined across domains; "custom" stands in
  /// for adapter domains in a mix ("" for a single custom adapter).
  std::string workload;
  /// Per-tick data plus the phase's control-network accounting
  /// (result.messages_dropped / result.messages_late — zero under the
  /// default sync transport).
  RunResult result;
  stats::MeasurementResult throughput;
  stats::MeasurementResult latency;
};

/// Everything an Experiment has run so far, in order.
struct ExperimentReport {
  std::vector<PhaseReport> phases;
  std::vector<std::string> parameter_names;
  std::vector<double> final_parameters;

  /// Latest report for `phase`, or nullptr if that phase never ran. The
  /// pointer is into `phases` and is invalidated by the next run_*() call
  /// (which appends to the vector) — consume it before running more.
  const PhaseReport* find(RunPhase phase) const;

  /// Tuned-vs-baseline throughput gain in percent (0 when either phase is
  /// missing or the baseline mean is non-positive).
  double tuned_gain_percent() const;
};

using TickObserver = std::function<void(const TickEvent&)>;
using TrainStepObserver = std::function<void(const TrainStepEvent&)>;
using PhaseObserver = std::function<void(const PhaseReport&)>;

/// One CSV row per tick: tick,throughput_mbs,latency_ms,reward. (The
/// composable replacement for the old RunResult::to_csv member.)
std::string run_result_csv(const RunResult& result);

/// Phase observer that writes `<prefix>_<phase>.csv` after every phase.
/// Re-running a phase overwrites its file.
PhaseObserver csv_phase_sink(std::string prefix);

class ExperimentBuilder {
 public:
  /// Start from an explicit preset instead of fast_preset(seed).
  ExperimentBuilder& preset(EvaluationPreset p);
  /// Seed for the preset's RNGs (cluster, DQN, exploration). Applies on
  /// top of an explicit preset too.
  ExperimentBuilder& seed(std::uint64_t s);
  /// Overlay a conf file (core/config_io.hpp keys) onto the preset.
  ExperimentBuilder& config_file(std::string path);
  /// Workload spec resolved through workload::Registry ("random:0.1", ...).
  /// Defines domain 0 on a bundled Lustre cluster.
  ExperimentBuilder& workload(std::string spec);
  /// Tune a custom target system instead of the bundled Lustre cluster
  /// (domain 0). The adapter must outlive the experiment. Mutually
  /// exclusive with workload()/monitor_servers()/tune_write_cache().
  ExperimentBuilder& adapter(TargetSystemAdapter& a);
  /// Add one more control domain on its own bundled Lustre cluster
  /// running `workload_spec`. Repeatable; domains are tuned together by
  /// one shared DRL brain. Each added cluster derives its own seed from
  /// the preset's so replicated specs still diverge.
  ExperimentBuilder& add_cluster(std::string workload_spec);
  /// Add one more control domain over a custom adapter (must outlive the
  /// experiment, and agree with every other domain on pis_per_node).
  ExperimentBuilder& add_cluster(TargetSystemAdapter& a);
  /// Worker threads for the hot per-tick path (0 = single-threaded;
  /// see CapesOptions::worker_threads).
  ExperimentBuilder& worker_threads(std::size_t threads);
  /// Simulator event-loop shards: 1 (the default) is the serial
  /// single-queue loop, 0 means "auto" (one event queue per control
  /// domain), N caps the queue count (domains map to shard d % N; the
  /// request also caps at the domain count). Shards advance concurrently
  /// on the worker_threads() pool between sampling ticks and meet a
  /// time-synced barrier at every tick — bit-identical to the serial
  /// loop for a fixed seed (see CapesOptions::sim_shards). Conf key:
  /// capes.sim.shards.
  ExperimentBuilder& sim_shards(std::size_t shards);
  /// How control domains map onto those event-loop shards, as a spec
  /// string: "static" (round-robin d % shards, fixed for the run — the
  /// default) or "rate" (re-pack domains by last-phase observed event
  /// counts at every phase boundary, LPT bin-packing with deterministic
  /// tie-breaks). Placement never changes physics, so either plan is
  /// bit-identical to the serial loop for a fixed seed. A malformed spec
  /// fails build(). Conf key: capes.sim.shard_plan.
  ExperimentBuilder& shard_plan(std::string spec);
  /// Control-network transport for the agent <-> daemon hops, as a spec
  /// string: "sync" (immediate delivery, the default — bit-identical to
  /// builds that never call transport()) or
  /// "sim[:latency_ticks=N,jitter=X,drop=P,seed=N]" (seeded, simulated
  /// latency / jitter / drop). A malformed spec fails build(). Wins over
  /// capes_options()/config-file transport settings.
  ExperimentBuilder& transport(std::string spec);
  /// Deterministic fault injection, as a spec string: "off" (the default
  /// — bit-identical to builds that never call faults()) or
  /// "faults[:ost_crash=P,restart_ticks=N,straggler=P,slow_factor=X,
  /// straggler_ticks=N,partition=P,partition_ticks=N,seed=N]". Every
  /// fault fate is a pure hash of (seed, kind, node, tick), so a seeded
  /// faulted run is bit-identical at any shard/thread count. A malformed
  /// spec fails build(), as does combining faults with the tcp transport
  /// (a real control network cannot replay deterministic fates). Conf
  /// keys: capes.sim.faults.*; CLI: --faults=. Wins over
  /// capes_options()/config-file fault settings.
  ExperimentBuilder& faults(std::string spec);
  /// Where DRL training steps run, as a spec string: "sync" trains inline
  /// on the control thread (bit-identical to builds that never call
  /// this), "async" moves training to a dedicated learner thread that
  /// overlaps the next tick's simulation — same weights, same actions, by
  /// the engine's sampling-on-the-control-thread protocol. Anything else
  /// fails build() (no silent fallback). Conf key: capes.learner.mode.
  /// Wins over capes_options()/config-file settings.
  ExperimentBuilder& learner(std::string spec);
  /// Persist the learner's full state (weights, optimizer moments, step
  /// counters) through the durable replay DB every N training ticks
  /// (0 = off, the default). Takes effect when replay_db_dir() is set.
  /// Conf key: capes.learner.checkpoint_ticks.
  ExperimentBuilder& learner_checkpoint_ticks(std::size_t ticks);
  /// Override CapesOptions wholesale (mainly for custom adapters; in
  /// Lustre mode the preset's options are usually right).
  ExperimentBuilder& capes_options(CapesOptions opts);
  /// Reward function (§3.2); defaults to aggregate throughput. Applies to
  /// every domain.
  ExperimentBuilder& objective(ObjectiveFunction f);
  ExperimentBuilder& monitor_servers(bool on = true);   ///< §6 extension
  ExperimentBuilder& tune_write_cache(bool on = true);  ///< §6 extension
  /// Default tick counts for run()/run_training()/run_baseline()/
  /// run_tuned() calls that don't pass explicit counts.
  ExperimentBuilder& train_ticks(std::int64_t ticks);
  ExperimentBuilder& eval_ticks(std::int64_t ticks);
  /// Simulated warm-up before the first phase (default 5 s).
  ExperimentBuilder& warmup_seconds(double s);
  /// Durable replay DB directory ("" = memory only).
  ExperimentBuilder& replay_db_dir(std::string dir);
  /// Flight recorder: capture every daemon-boundary message (PI status,
  /// actions, broadcasts) plus rewards and phase markers to `path` for
  /// offline replay with `capes_replay` ("" = off, the default). Conf
  /// keys: capes.capture.path / capes.capture.ring; CLI: --capture=.
  /// Wins over capes_options()/config-file capture settings.
  ExperimentBuilder& capture(std::string path);

  ExperimentBuilder& on_tick(TickObserver f);
  ExperimentBuilder& on_train_step(TrainStepObserver f);
  ExperimentBuilder& on_phase_end(PhaseObserver f);

  /// Validates the configuration and assembles the object graph. Returns
  /// nullptr and sets *error (if non-null) on an unknown workload, a bad
  /// spec, an unreadable config file, or a missing workload/adapter.
  /// The builder is left intact either way and can build again.
  std::unique_ptr<Experiment> build(std::string* error = nullptr);

 private:
  friend class Experiment;
  /// One domain past domain 0: either a workload spec on a bundled
  /// cluster or a caller-owned adapter.
  struct ExtraDomain {
    std::string workload_spec;
    TargetSystemAdapter* adapter = nullptr;
  };

  std::optional<EvaluationPreset> preset_;
  std::optional<std::uint64_t> seed_;
  std::string config_file_;
  std::string workload_spec_;
  TargetSystemAdapter* adapter_ = nullptr;
  std::vector<ExtraDomain> extra_domains_;
  std::optional<std::size_t> worker_threads_;
  std::optional<std::size_t> sim_shards_;
  std::optional<std::string> shard_plan_spec_;
  std::optional<std::string> transport_spec_;
  std::optional<std::string> faults_spec_;
  std::optional<std::string> learner_spec_;
  std::optional<std::size_t> learner_checkpoint_ticks_;
  std::optional<CapesOptions> capes_options_;
  ObjectiveFunction objective_;
  bool monitor_servers_ = false;
  bool tune_write_cache_ = false;
  std::int64_t train_ticks_ = -1;
  std::int64_t eval_ticks_ = -1;
  double warmup_seconds_ = 5.0;
  std::optional<std::string> replay_db_dir_;
  std::optional<std::string> capture_path_;
  std::vector<TickObserver> tick_observers_;
  std::vector<TrainStepObserver> train_step_observers_;
  std::vector<PhaseObserver> phase_observers_;
};

class Experiment {
 public:
  static ExperimentBuilder builder() { return {}; }

  ~Experiment();
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// The full §A.4 workflow: one training session, then a baseline and a
  /// tuned measurement, with phase observers firing after each phase.
  /// Negative tick counts use the builder/preset defaults.
  ExperimentReport run(std::int64_t train_ticks = -1,
                       std::int64_t eval_ticks = -1);

  /// Individual phases, for call sites that interleave them (epsilon
  /// checks, repeated tuned windows, model checkpointing between phases).
  PhaseReport run_training(std::int64_t ticks = -1);
  PhaseReport run_baseline(std::int64_t ticks = -1);
  PhaseReport run_tuned(std::int64_t ticks = -1);

  /// Swap domain 0's workload for `spec` (resolved via the registry):
  /// stops the old generator, starts the new one, and tells CAPES about
  /// the change so epsilon re-explores (§3.6). Bundled clusters only.
  bool switch_workload(const std::string& spec, std::string* error = nullptr);

  /// Swap a specific domain's workload (bundled-cluster domains only).
  bool switch_workload(std::size_t domain, const std::string& spec,
                       std::string* error = nullptr);

  /// §3.6 epsilon bump without a workload swap.
  void notify_workload_change();

  bool save_model(const std::string& path) const;
  bool load_model(const std::string& path);

  /// Everything run so far plus the current parameter state. The report
  /// keeps every phase's raw per-tick samples, so a long-lived Experiment
  /// that loops phases indefinitely grows it without bound; snapshot and
  /// clear via take_report() in continuous operation.
  const ExperimentReport& report() const { return report_; }

  /// Moves the accumulated report out, leaving an empty history (the
  /// parameter state stays current).
  ExperimentReport take_report();

  // Escape hatches to the owned graph, for benches and tests that poke
  // below the facade (prediction-error logs, direct parameter sweeps).
  sim::Simulator& simulator() { return *sim_; }
  CapesSystem& system() { return *system_; }
  std::size_t num_domains() const { return domain_runtimes_.size(); }
  lustre::Cluster* cluster() { return cluster_at(0); }  ///< null in adapter mode
  /// Domain `domain`'s bundled cluster; null for custom-adapter domains
  /// and out-of-range indices.
  lustre::Cluster* cluster_at(std::size_t domain) {
    return domain < domain_runtimes_.size()
               ? domain_runtimes_[domain].cluster.get()
               : nullptr;
  }
  workload::Workload* active_workload() { return workload_at(0); }  ///< null in adapter mode
  /// Domain `domain`'s bundled workload; null for custom-adapter domains
  /// and out-of-range indices.
  workload::Workload* workload_at(std::size_t domain) {
    return domain < domain_runtimes_.size()
               ? domain_runtimes_[domain].workload.get()
               : nullptr;
  }
  const EvaluationPreset& preset() const { return preset_; }
  /// Tick counts used when run_*() gets no explicit count (builder
  /// override if given, else the preset's).
  std::int64_t default_train_ticks() const { return default_train_ticks_; }
  std::int64_t default_eval_ticks() const { return default_eval_ticks_; }
  /// Active workload names, "+"-joined across domains with "custom" for
  /// adapter domains ("" for a single custom adapter; a single bundled
  /// domain reads as before).
  std::string workload_name() const;
  /// Snapshot of every domain's parameter values in composite order.
  std::vector<double> parameter_values() const {
    return system_->parameter_values();
  }

  /// Runs the configured warm-up if it hasn't happened yet. Phases do
  /// this on demand; call it directly only to warm up without measuring.
  void ensure_warmed_up();

 private:
  friend class ExperimentBuilder;
  Experiment() = default;

  PhaseReport run_phase(RunPhase phase, std::int64_t ticks);

  EvaluationPreset preset_;
  double warmup_seconds_ = 5.0;
  bool warmed_up_ = false;
  std::int64_t default_train_ticks_ = 0;
  std::int64_t default_eval_ticks_ = 0;

  std::unique_ptr<sim::Simulator> sim_;
  /// Per-domain ownership: bundled domains own a cluster + workload;
  /// custom-adapter domains own neither (the caller does).
  struct DomainRuntime {
    std::unique_ptr<lustre::Cluster> cluster;
    std::unique_ptr<workload::Workload> workload;
    TargetSystemAdapter* adapter = nullptr;
    // No shard field on purpose: CapesSystem's planner is the single
    // source of placement. Workload restarts query the domain's live
    // shard through ControlDomain::bind_sim_shard(), so a rate re-pack
    // can never drift from a second cached copy here.
  };
  std::vector<DomainRuntime> domain_runtimes_;
  /// Generators replaced by switch_workload, kept alive until their
  /// in-flight operations have certainly drained (see reap in
  /// switch_workload) so completion callbacks never dangle.
  struct RetiredWorkload {
    std::unique_ptr<workload::Workload> workload;
    sim::TimeUs retired_at = 0;
  };
  std::vector<RetiredWorkload> retired_workloads_;
  std::unique_ptr<CapesSystem> system_;

  std::vector<PhaseObserver> phase_observers_;
  ExperimentReport report_;
};

}  // namespace capes::core
