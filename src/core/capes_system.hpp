#pragma once
// CapesSystem: wires the whole Figure 1 architecture onto one or more
// target systems and a shared simulator — Monitoring Agents on every
// node, the sharded Interface Daemon with per-domain Action Checkers,
// the Replay DB (optionally WAL-durable), the DRL Engine, and Control
// Agents. One DRL brain tunes N control domains: observations
// concatenate every domain's nodes, the action space is the
// concatenation of every domain's parameter adjustments (plus the shared
// NULL action), and a single unified tick loop drives all domains. With
// one domain this is exactly the original single-cluster system.
// Drives sampling/action/training ticks and exposes the evaluation
// workflow of Appendix A.4: run_training / run_baseline / run_tuned.
//
// Control network: every agent <-> daemon hop rides a bus::Channel whose
// bus::Transport CapesOptions::transport selects. The default
// SyncTransport delivers within the tick (bit-identical to the direct
// calls it replaced); SimTransport adds seeded latency / jitter / drop,
// with late PI messages surfacing on arrival and dropped ones absorbed
// by the Replay DB's missing-entry tolerance.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bus/transport.hpp"
#include "capture/wire_log_writer.hpp"
#include "core/adapter.hpp"
#include "core/brain.hpp"
#include "core/control_domain.hpp"
#include "core/monitoring_agent.hpp"
#include "core/objective.hpp"
#include "rl/action_space.hpp"
#include "sim/fault.hpp"
#include "sim/shard_planner.hpp"
#include "sim/simulator.hpp"
#include "stats/measurement.hpp"

namespace capes::util {
class ThreadPool;
}

namespace capes::core {

class BrainClient;

struct CapesOptions {
  /// Table 1: sampling tick length (1 s) and action tick length (1 action
  /// per second).
  double sampling_tick_s = 1.0;
  std::size_t action_ticks_per_sample = 1;
  rl::ReplayDbOptions replay;  ///< num_nodes/pis_per_node filled from adapters
  DrlEngineOptions engine;
  /// Objective normalization scale (MB/s mapped to O(1) rewards).
  double reward_scale_mbs = 200.0;
  /// Durable replay DB directory ("" = memory only).
  std::string replay_db_dir;
  /// Worker threads for the per-tick hot path (monitoring-agent fan-out,
  /// minibatch assembly, DQN GEMM panels). 0 keeps the single-threaded
  /// deterministic path; the threaded path is engineered to produce the
  /// same results (parallel collect-and-publish, order-independent
  /// drain), just faster.
  std::size_t worker_threads = 0;
  /// Control-network model for the agent <-> daemon hops (sync = direct
  /// delivery, the default). When the sim transport's seed is not
  /// explicitly set, it derives from the engine seed so one experiment
  /// seed also fixes the network realization.
  bus::TransportOptions transport;
  /// Simulator event-loop shards: how many per-domain event queues the
  /// hosting simulator is partitioned into. 1 (the default) keeps the
  /// serial single-queue loop; 0 means "auto" — one shard per control
  /// domain; N caps the shard count (domains map to shard d % N). Between
  /// sampling ticks domains only interact through bus channel publishes,
  /// so shards advance independently — concurrently when worker_threads
  /// gives them a pool — and rejoin at a time-synced barrier every tick,
  /// bit-identical to the serial loop for a fixed seed. ExperimentBuilder
  /// resolves this against the domain count and configures the simulator;
  /// callers wiring CapesSystem onto their own Simulator shard it
  /// themselves (sim::Simulator::configure_shards / bind_shard).
  std::size_t sim_shards = 1;
  /// How domains map onto those shards. kStatic keeps the historical
  /// round-robin (domain d on shard d % sim_shards, fixed for the run);
  /// kRate re-packs domains onto shards at every phase boundary by
  /// last-phase observed event counts (LPT bin-packing, deterministic
  /// tie-breaks), migrating each moved domain's pending events to its new
  /// queue. Placement only changes which thread advances a domain —
  /// never its event order — so any plan stays bit-identical to serial.
  sim::ShardPlanKind shard_plan = sim::ShardPlanKind::kStatic;
  /// Deterministic fault injection (sim/fault.hpp): OST crashes with
  /// timed restarts, straggler disks, and control-network partition
  /// windows. The default (every rate zero) injects nothing and keeps
  /// the run bit-identical to a build without fault support. When the
  /// plan's seed is not explicitly set, it derives from the engine seed
  /// so one experiment seed also fixes the fault realization. Rejected
  /// under the tcp transport (the brain is remote; fault state could not
  /// be replayed bit-identically).
  sim::FaultPlan faults;
  /// Flight recorder: when non-empty, every daemon-boundary message (PI
  /// status, suggested/recorded actions, checked-action broadcasts) plus
  /// per-tick rewards and phase markers is written to this capture file
  /// for offline replay (`capes_replay`). "" (the default) disables
  /// capture and keeps the tick path allocation-free.
  std::string capture_path;
  /// Capture-ring slots between the control thread and the file sink.
  std::size_t capture_ring = 8192;
};

/// Result of one run phase (training, baseline, or tuned measurement).
/// Throughput aggregates (sums) across domains; latency and reward are
/// cross-domain means, so their scale is independent of the domain count.
struct RunResult {
  stats::MeasurementSession throughput;  ///< one MB/s sample per tick
  stats::MeasurementSession latency_ms;  ///< one mean-latency sample per tick
  std::vector<double> rewards;           ///< objective outputs per tick
  std::int64_t start_tick = 0;
  std::int64_t end_tick = 0;
  std::size_t train_steps = 0;
  /// Control-network accounting over this phase (PI + action channels):
  /// messages the transport dropped, and messages delivered at least one
  /// tick after they were sent. Both zero under the sync transport.
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_late = 0;
  /// Sharded-loop observability (empty / zero when the simulator has one
  /// shard): events each shard executed over the phase, and wall-clock
  /// nanoseconds each shard spent idle at tick barriers while the slowest
  /// shard finished (wall time is reporting-only, never fed back into
  /// placement).
  std::vector<std::uint64_t> shard_events;
  std::vector<std::uint64_t> shard_barrier_wait_ns;
  /// Deterministic imbalance counter: summed over ticks, the events the
  /// busiest shard ran that tick minus each other shard's events — the
  /// work the barrier serialized. A better-balanced plan strictly lowers
  /// it on a skewed workload, and it is reproducible run to run.
  std::uint64_t barrier_wait_events = 0;
  /// Fault-injection accounting over this phase, summed across domains
  /// (all zero when CapesOptions::faults is disabled): fault starts by
  /// kind, their total, and (domain, tick) pairs with any fault active.
  std::uint64_t faults_injected = 0;
  std::uint64_t ost_crashes = 0;
  std::uint64_t stragglers = 0;
  std::uint64_t partitions = 0;
  std::uint64_t ticks_degraded = 0;
  /// Regime shifts the phase's per-tick throughput series shows
  /// (stats::pelt_mean_shift change points) — how much churn, injected
  /// or organic, the tuner was exposed to.
  std::size_t regime_shifts = 0;

  stats::MeasurementResult analyze() const { return throughput.analyze(); }
  stats::MeasurementResult analyze_latency() const { return latency_ms.analyze(); }
  /// Max/mean of shard_events (1.0 when unsharded or eventless).
  double shard_imbalance() const;
};

/// Per-tick sample snapshot delivered to tick listeners. Aggregated like
/// RunResult; per-domain detail is available via CapesSystem::domain(i)'s
/// last_perf()/last_reward() from inside the listener.
struct TickEvent {
  RunPhase phase = RunPhase::kIdle;
  std::int64_t tick = 0;
  double throughput_mbs = 0.0;
  double latency_ms = 0.0;
  double reward = 0.0;
};

/// Delivered to train-step listeners after each training tick that ran at
/// least one minibatch step.
struct TrainStepEvent {
  std::int64_t tick = 0;
  std::size_t steps = 0;        ///< minibatch steps this tick
  std::size_t total_steps = 0;  ///< cumulative over the system's lifetime
};

class CapesSystem {
 public:
  /// Single-cluster convenience: one control domain over `adapter`. The
  /// adapter must outlive the system. The objective defaults to aggregate
  /// throughput.
  CapesSystem(sim::Simulator& sim, TargetSystemAdapter& adapter,
              CapesOptions opts, ObjectiveFunction objective = nullptr);

  /// Multi-cluster form: one control domain per spec, all sharing this
  /// system's DRL Engine, Replay DB and tick loop on `sim`. Adapters must
  /// outlive the system and agree on pis_per_node (observation rows are
  /// uniform). `default_objective` applies to every spec without its own.
  CapesSystem(sim::Simulator& sim, const std::vector<ControlDomainSpec>& specs,
              CapesOptions opts, ObjectiveFunction default_objective = nullptr);
  ~CapesSystem();

  /// Train for `ticks` sampling ticks (control on, epsilon annealing,
  /// training steps running). Continues from the current tick count, so
  /// consecutive calls extend one training session.
  RunResult run_training(std::int64_t ticks);

  /// Measure with default parameter values and no CAPES control.
  RunResult run_baseline(std::int64_t ticks);

  /// Measure with CAPES steering at eval epsilon, training frozen.
  RunResult run_tuned(std::int64_t ticks);

  /// §3.6: tell CAPES a new workload just started (bumps epsilon).
  void notify_workload_change();

  /// Observer hooks. Listeners fire inside the sampling loop in
  /// registration order; they must not re-enter run_*().
  void add_tick_listener(std::function<void(const TickEvent&)> listener);
  void add_train_step_listener(std::function<void(const TrainStepEvent&)> listener);

  /// Reset every domain's tuned parameters to their initial values.
  void reset_parameters();

  /// The LocalBrain's components. Under the `tcp:` transport these live
  /// in the remote capes_daemond, and calling the accessors aborts with a
  /// message — use the remote-safe training_fingerprint() /
  /// total_train_steps() (or brain_client()) instead.
  DrlEngine& engine();
  rl::ReplayDb& replay();
  InterfaceDaemon& interface_daemon();

  /// True when the transport is `tcp:`: the Monitoring/Control Agents and
  /// the simulated cluster run here while the brain lives in a
  /// capes_daemond this system holds a connection to.
  bool remote_brain() const { return client_ != nullptr; }
  /// The connection to that daemon (null in-process).
  BrainClient* brain_client() { return client_; }

  /// CRC32 of the online-network weights after all in-flight training,
  /// and cumulative minibatch steps — engine-backed in process, cached
  /// from the latest daemon ack under `tcp:`.
  std::uint32_t training_fingerprint() const;
  std::size_t total_train_steps() const;
  /// The control-network transport every hop rides on.
  const bus::Transport& transport() const { return *transport_; }
  /// The composite action space: the shared NULL action plus every
  /// domain's parameter adjustments, domain-namespaced names when there
  /// is more than one domain.
  const rl::ActionSpace& action_space() const { return *space_; }
  /// Every domain's parameter values, concatenated in domain order (the
  /// composite space's parameter order). A snapshot by value: domain
  /// parameter vectors mutate every action tick, so hold the result, not
  /// a reference into the system.
  std::vector<double> parameter_values() const;
  std::int64_t current_tick() const { return tick_; }

  // ---- control domains ---------------------------------------------------
  std::size_t num_domains() const { return domains_.size(); }
  ControlDomain& domain(std::size_t i) { return *domains_[i]; }
  const ControlDomain& domain(std::size_t i) const { return *domains_[i]; }
  const std::vector<std::unique_ptr<ControlDomain>>& domains() const {
    return domains_;
  }
  /// Monitored nodes across all domains (the replay DB's node count).
  std::size_t total_nodes() const { return total_nodes_; }
  /// The hot-path worker pool (null when worker_threads == 0).
  util::ThreadPool* worker_pool() { return pool_.get(); }

  // ---- shard placement ---------------------------------------------------
  /// The placement policy this system was built with.
  sim::ShardPlanKind shard_plan_kind() const { return planner_.kind(); }
  /// The live plan: current shard per domain plus the loads it was packed
  /// from (domain counts until the first rate re-pack).
  const sim::ShardPlan& shard_plan() const { return shard_plan_; }
  /// Times a phase-boundary re-pack actually moved at least one domain.
  std::size_t shard_replans() const { return shard_replans_; }

  // ---- fault injection ---------------------------------------------------
  /// The fault plan in effect (seed already derived; disabled when
  /// CapesOptions::faults was not enabled).
  const sim::FaultPlan& fault_plan() const { return fault_plan_; }
  /// Lifetime fault counters summed across every domain's injector.
  sim::FaultCounters fault_counters() const;

  /// Total bytes sent by all Monitoring Agents of all domains (Table 2).
  std::uint64_t monitoring_bytes_sent() const;

  /// Checkpoint the trained model (§A.4). Returns false on I/O error.
  bool save_model(const std::string& path) const;
  bool load_model(const std::string& path);

  /// The durable replay database, when configured (else nullptr).
  waldb::Database* database();

  /// The flight recorder, when capture_path was set (else nullptr).
  /// Callers may close() it early (idempotent, control thread only) to
  /// read final byte counts before the system is destroyed.
  capture::WireLogWriter* capture_writer() { return capture_.get(); }

  /// Heap allocations observed on the per-tick CAPES control path
  /// (status sample/encode/decode/record, reward record, action
  /// select/check/publish, minibatch assembly + inline training).
  /// Excluded by design: action delivery to the target system (applying
  /// parameters may schedule events), simulator event execution,
  /// durable-DB writes,
  /// result/log appends, listener callbacks, and learner-thread work.
  /// Zero once warm in the audited configuration (sync learner, no
  /// worker pool, memory-only DB, bounded replay retention); always 0
  /// when the counting allocator hook is not linked in.
  std::uint64_t hot_path_allocations() const;

 private:
  RunResult run_phase(std::int64_t ticks, RunPhase mode);
  void on_sampling_tick(RunResult& result, RunPhase mode);
  void sample_all_agents(std::int64_t t);
  /// Advance every domain's fault schedule to the current tick (under
  /// that domain's shard binding) and capture the observed fault events.
  /// Runs at the sampling-tick barrier, before the simulator advance.
  void inject_faults();
  /// Phase-boundary re-pack: plan from the per-domain event counts of the
  /// window since the last plan and migrate + re-attach moved domains.
  /// No-op for static plans, single-shard simulators, or before any
  /// events exist (the deterministic round-robin fallback).
  void replan_shards();
  /// Fold the simulator's last-advance per-shard stats into `result`.
  void accumulate_shard_stats(RunResult& result);
  /// The in-process brain; aborts naming `what` under the tcp transport.
  LocalBrain& local_brain(const char* what);

  sim::Simulator& sim_;
  CapesOptions opts_;
  ObjectiveFunction objective_;

  std::vector<std::unique_ptr<ControlDomain>> domains_;
  std::size_t total_nodes_ = 0;
  std::unique_ptr<rl::ActionSpace> space_;  ///< composite
  std::unique_ptr<bus::Transport> transport_;
  std::unique_ptr<capture::WireLogWriter> capture_;
  std::unique_ptr<util::ThreadPool> pool_;
  /// The brain, chosen once at construction: a LocalBrain, or a
  /// BrainClient under the tcp transport. Declared after transport_,
  /// capture_ and pool_ — it references all three.
  std::unique_ptr<Brain> brain_;
  LocalBrain* local_ = nullptr;    ///< brain_ when in-process
  BrainClient* client_ = nullptr;  ///< brain_ under tcp

  /// All domains' Monitoring Agents in fan-in order (domain-major, then
  /// node): the unit of the per-tick sampling fan-out.
  std::vector<MonitoringAgent*> agents_flat_;
  /// Same agents indexed by global node id (payload recycling).
  std::vector<MonitoringAgent*> agent_by_node_;
  /// Control-path allocation count (see hot_path_allocations()).
  std::uint64_t hot_path_allocs_ = 0;

  /// Shard placement state: the planner, the live plan, the per-domain
  /// executed-count snapshot at the last plan (so each re-pack sees only
  /// the window since then), and reusable count scratch.
  sim::ShardPlanner planner_{sim::ShardPlanKind::kStatic, 0, 1};
  sim::ShardPlan shard_plan_;
  std::vector<std::uint64_t> domain_events_baseline_;
  std::vector<std::uint64_t> domain_events_scratch_;
  std::size_t shard_replans_ = 0;
  /// Fault injection: the seeded plan and one injector per domain (empty
  /// when the plan is disabled — the tick loop then never touches fault
  /// state, keeping faults-off runs bit-identical to pre-fault builds).
  sim::FaultPlan fault_plan_;
  std::vector<std::unique_ptr<sim::FaultInjector>> injectors_;
  /// Per-domain scratch for the pooled reward-sampling fan-out (results
  /// are reduced serially in domain order, so the pooled path matches the
  /// serial one bit for bit).
  std::vector<PerfSample> domain_perf_scratch_;
  std::vector<double> domain_reward_scratch_;

  std::int64_t tick_ = 0;
  std::size_t total_train_steps_ = 0;
  std::vector<std::function<void(const TickEvent&)>> tick_listeners_;
  std::vector<std::function<void(const TrainStepEvent&)>> train_step_listeners_;
};

}  // namespace capes::core
