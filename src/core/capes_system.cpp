#include "core/capes_system.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "capture/trace_meta.hpp"
#include "core/remote_brain.hpp"
#include "stats/changepoint.hpp"
#include "util/alloc_hook.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace capes::core {

namespace {

/// Everything a replayer or capes_daemond needs to rebuild the brain
/// bit-identically. The fingerprint is the post-restore starting state,
/// so a replay from fresh weights can detect a resumed live run.
capture::TraceMeta trace_meta_from(const CapesOptions& opts,
                                   std::size_t num_domains,
                                   std::uint32_t weights_fingerprint) {
  capture::TraceMeta meta =
      meta_from_brain_options(BrainOptions{opts.replay, opts.engine});
  meta.num_domains = static_cast<std::uint32_t>(num_domains);
  meta.sampling_tick_s = opts.sampling_tick_s;
  meta.initial_weights_fingerprint = weights_fingerprint;
  return meta;
}

}  // namespace

CapesSystem::CapesSystem(sim::Simulator& sim, TargetSystemAdapter& adapter,
                         CapesOptions opts, ObjectiveFunction objective)
    : CapesSystem(sim, std::vector<ControlDomainSpec>{{&adapter, nullptr, ""}},
                  std::move(opts), std::move(objective)) {}

CapesSystem::CapesSystem(sim::Simulator& sim,
                         const std::vector<ControlDomainSpec>& specs,
                         CapesOptions opts, ObjectiveFunction default_objective)
    : sim_(sim), opts_(std::move(opts)),
      objective_(default_objective
                     ? std::move(default_objective)
                     : throughput_objective(opts_.reward_scale_mbs)) {
  // Constructor preconditions fail fast in every build mode: a domain
  // with a missing adapter or a disagreeing PI width would otherwise
  // silently train on garbage observations (the codebase is
  // exception-free, so misuse aborts instead of throwing).
  if (specs.empty()) {
    std::fprintf(stderr, "CapesSystem: at least one ControlDomainSpec required\n");
    std::abort();
  }
  for (std::size_t d = 0; d < specs.size(); ++d) {
    if (specs[d].adapter == nullptr) {
      std::fprintf(stderr, "CapesSystem: spec %zu has a null adapter\n", d);
      std::abort();
    }
    if (specs[d].adapter->pis_per_node() != specs[0].adapter->pis_per_node()) {
      std::fprintf(stderr,
                   "CapesSystem: all domains must agree on pis_per_node "
                   "(domain %zu has %zu, domain 0 has %zu)\n",
                   d, specs[d].adapter->pis_per_node(),
                   specs[0].adapter->pis_per_node());
      std::abort();
    }
    for (std::size_t e = 0; e < d; ++e) {
      if (specs[e].adapter == specs[d].adapter) {
        std::fprintf(stderr,
                     "CapesSystem: specs %zu and %zu share one adapter; each "
                     "domain needs its own target system (shared sampling "
                     "state would double-read the per-tick deltas)\n",
                     e, d);
        std::abort();
      }
    }
  }
  const std::size_t pis = specs[0].adapter->pis_per_node();

  // Lay out the shared namespaces: each domain takes a contiguous slice
  // of the node, action, and parameter axes, in spec order.
  std::size_t node_offset = 0;
  std::size_t action_offset = 1;  // composite index 0 is the shared NULL
  std::size_t param_offset = 0;
  std::vector<rl::TunableParameter> composite_params;
  for (std::size_t d = 0; d < specs.size(); ++d) {
    const ControlDomainSpec& spec = specs[d];
    auto domain = std::make_unique<ControlDomain>(
        d, spec.name, *spec.adapter,
        spec.objective ? spec.objective : objective_, node_offset,
        action_offset, param_offset);
    node_offset += domain->num_nodes();
    action_offset += domain->num_slice_actions();
    param_offset += domain->num_parameters();
    for (const rl::TunableParameter& p : domain->space().parameters()) {
      rl::TunableParameter named = p;
      // Namespace parameter names only when there is something to
      // disambiguate, so single-domain reports stay as before.
      if (specs.size() > 1) named.name = domain->name() + "." + p.name;
      composite_params.push_back(std::move(named));
    }
    domains_.push_back(std::move(domain));
  }
  total_nodes_ = node_offset;
  space_ = std::make_unique<rl::ActionSpace>(std::move(composite_params));

  opts_.replay.num_nodes = total_nodes_;
  opts_.replay.pis_per_node = pis;
  opts_.engine.dqn.num_actions = space_->num_actions();

  // The control network: one transport behind every hop. A sim transport
  // without an explicit seed derives one from the engine seed, so a
  // seeded experiment fixes its network realization too.
  bus::TransportOptions transport_opts = opts_.transport;
  if (!transport_opts.seed_explicit) {
    transport_opts.seed = opts_.engine.seed ^ 0xb0575eedULL;
  }
  transport_ = bus::make_transport(transport_opts);
  const bool remote = transport_opts.kind == bus::TransportKind::kTcp;

  // The fault plan: seeded like the transport (one experiment seed fixes
  // the fault realization too), enforced partly here (partition windows
  // at the bus seam) and partly by the per-domain injectors below.
  fault_plan_ = opts_.faults;
  if (!fault_plan_.seed_explicit) {
    fault_plan_.seed = opts_.engine.seed ^ 0xfa0175eedULL;
  }
  if (fault_plan_.enabled() && remote) {
    // The builder rejects this combination with a proper error; reaching
    // here means a direct caller skipped validation — fail fast like the
    // other constructor preconditions.
    std::fprintf(stderr,
                 "CapesSystem: fault injection is not supported under the "
                 "tcp transport\n");
    std::abort();
  }
  if (fault_plan_.enabled() && fault_plan_.partition > 0.0) {
    // Partition windows drop a domain's control-plane messages at the
    // transport seam, composing with (never replacing) the inner
    // policy's latency / jitter / drop fates and surfacing in the same
    // ChannelStats::dropped -> messages_dropped accounting. The
    // predicate is a pure hash per (topic, sender, tick), so it obeys
    // the Transport contract under concurrent worker-thread publishes.
    std::vector<std::uint64_t> node_end;
    node_end.reserve(domains_.size());
    for (const auto& domain : domains_) {
      node_end.push_back(domain->node_offset() + domain->num_nodes());
    }
    const sim::FaultPlan plan = fault_plan_;
    transport_ = std::make_unique<bus::FaultingTransport>(
        std::move(transport_),
        [plan, node_end = std::move(node_end)](
            std::uint64_t topic, std::uint64_t sender, std::int64_t tick) {
          std::uint32_t domain = 0;
          if (topic == kStatusTopic) {
            // PI senders are global node ids; domains own contiguous
            // ranges in layout order.
            const auto it =
                std::upper_bound(node_end.begin(), node_end.end(), sender);
            if (it == node_end.end()) return false;
            domain = static_cast<std::uint32_t>(it - node_end.begin());
          } else if (topic >= kActionTopicBase &&
                     topic < kActionTopicBase + node_end.size()) {
            // One action-broadcast channel per daemon shard == domain.
            domain = static_cast<std::uint32_t>(topic - kActionTopicBase);
          } else {
            return false;
          }
          return sim::domain_partitioned(plan, domain, tick);
        });
  }

  if (opts_.worker_threads > 0) {
    pool_ = std::make_unique<util::ThreadPool>(opts_.worker_threads);
  }

  // The brain, picked once: in process, a LocalBrain with one shard per
  // domain; under tcp, a BrainClient whose Hello ships the TraceMeta
  // snapshot a capture leads with, so capes_daemond rebuilds the brain
  // bit-identically to the in-process one.
  if (!remote) {
    std::vector<DaemonShard> shards;
    for (auto& domain : domains_) shards.push_back(domain_shard(*domain));
    auto local = std::make_unique<LocalBrain>(
        BrainOptions{opts_.replay, opts_.engine}, std::move(shards),
        transport_.get(), pool_.get(), opts_.replay_db_dir);
    local_ = local.get();
    brain_ = std::move(local);
  } else {
    if (!opts_.replay_db_dir.empty()) {
      CAPES_LOG_WARN("capes") << "replay_db_dir is ignored under the tcp "
                                 "transport (the replay DB lives in "
                                 "capes_daemond)";
    }
    auto client = std::make_unique<BrainClient>(*transport_, transport_opts);
    std::string error;
    if (!client->connect(trace_meta_from(opts_, domains_.size(), 0), domains_,
                         &error)) {
      // Like the other constructor preconditions this fails fast: every
      // run method would dereference a half-connected control plane.
      std::fprintf(stderr, "CapesSystem: %s\n", error.c_str());
      std::exit(1);
    }
    client_ = client.get();
    brain_ = std::move(client);
  }

  if (!opts_.capture_path.empty()) {
    capture::WireLogWriterOptions wopts;
    wopts.path = opts_.capture_path;
    wopts.ring_capacity = opts_.capture_ring;
    // The meta fingerprint is the engine's post-restore starting state —
    // under tcp that engine is remote, and the HelloAck reported it.
    capture_ = std::make_unique<capture::WireLogWriter>(
        wopts,
        trace_meta_from(opts_, domains_.size(), brain_->weights_fingerprint())
            .encode());
    if (!capture_->ok()) {
      CAPES_LOG_WARN("capture")
          << "capture disabled: cannot write " << opts_.capture_path;
      capture_.reset();
    } else {
      brain_->set_capture(capture_.get());
    }
  }

  if (opts_.worker_threads > 0 ||
      opts_.engine.learner_mode == LearnerMode::kAsync) {
    // Multiple threads may log (workers, the learner): route lines
    // through the async drain so they are never torn.
    util::Logger::instance().enable_async();
  }

  // CapesOptions::sim_shards is a request the hosting context satisfies
  // by sharding the simulator *before* constructing the system (the
  // builder does; direct callers use Simulator::configure_shards). A
  // request that was never honored would silently run the serial loop,
  // so fail fast like the other constructor preconditions.
  const std::size_t shards_requested =
      opts_.sim_shards == 0 ? domains_.size() : opts_.sim_shards;
  if (shards_requested > 1 && sim_.num_shards() == 1) {
    std::fprintf(stderr,
                 "CapesSystem: sim_shards = %zu requested but the simulator "
                 "has one shard; call Simulator::configure_shards first\n",
                 shards_requested);
    std::abort();
  }

  // Every domain owns one shard of the (possibly sharded) simulator
  // event loop, so barrier-time calls into its target system route their
  // scheduling to the right queue. The planner is the single source of
  // placement: runs start on its round-robin static plan (there is no
  // rate signal yet) and a kRate planner re-packs at phase boundaries.
  // With an unsharded simulator this binds everything to shard 0 — the
  // original behavior.
  planner_ =
      sim::ShardPlanner(opts_.shard_plan, domains_.size(), sim_.num_shards());
  shard_plan_ = planner_.static_plan();
  for (auto& domain : domains_) {
    domain->attach_sim_shard(&sim_, shard_plan_.shard_of_domain[domain->index()]);
  }
  domain_perf_scratch_.resize(domains_.size());
  domain_reward_scratch_.resize(domains_.size());

  // One fault injector per domain (only when the plan injects anything:
  // a disabled plan leaves the tick loop untouched). Adapters without a
  // fault surface still get an injector — their partition fate and the
  // counters apply; there are just no nodes to crash or slow.
  if (fault_plan_.enabled()) {
    injectors_.reserve(domains_.size());
    for (auto& domain : domains_) {
      injectors_.push_back(std::make_unique<sim::FaultInjector>(
          sim_, fault_plan_, static_cast<std::uint32_t>(domain->index()),
          domain->adapter().fault_target()));
    }
  }

  // Monitoring Agents publish into the brain's inbox; Control Agents
  // belong to their domain, through which either brain delivers the
  // checked broadcasts.
  PiChannel& inbox = brain_->inbox();
  for (auto& domain : domains_) {
    for (std::size_t n = 0; n < domain->num_nodes(); ++n) {
      auto agent = std::make_unique<MonitoringAgent>(
          n, domain->global_node(n), domain->adapter(), inbox);
      agents_flat_.push_back(agent.get());
      domain->add_monitoring_agent(std::move(agent));
      domain->add_control_agent(
          std::make_unique<ControlAgent>(n, domain->adapter()));
    }
  }

  // Close the allocation-free status loop: drained PI payload buffers
  // flow back to the agent that encoded them (keyed by global node id).
  agent_by_node_.assign(total_nodes_, nullptr);
  for (MonitoringAgent* agent : agents_flat_) {
    agent_by_node_[agent->node()] = agent;
  }
  brain_->set_payload_recycler(
      [this](std::uint64_t sender, std::vector<std::uint8_t>&& payload) {
        if (sender < agent_by_node_.size() &&
            agent_by_node_[sender] != nullptr) {
          agent_by_node_[sender]->recycle_payload(std::move(payload));
        }
      });
}

// The brain's destructor says Bye (remote) or checkpoints its store (local).
CapesSystem::~CapesSystem() = default;

void CapesSystem::reset_parameters() {
  for (auto& domain : domains_) domain->reset_parameters();
  // Keep the brain's parameter vectors (what vetoes are checked against)
  // in step with the reset.
  brain_->reset_params(tick_);
}

void CapesSystem::notify_workload_change() {
  if (capture_) {
    capture_->record(capture::RecordType::kWorkloadChange, tick_, 0, 0,
                     nullptr, 0);
  }
  brain_->workload_change(tick_);
}

void CapesSystem::add_tick_listener(
    std::function<void(const TickEvent&)> listener) {
  if (listener) tick_listeners_.push_back(std::move(listener));
}

void CapesSystem::add_train_step_listener(
    std::function<void(const TrainStepEvent&)> listener) {
  if (listener) train_step_listeners_.push_back(std::move(listener));
}

std::uint64_t CapesSystem::hot_path_allocations() const {
  return hot_path_allocs_ + brain_->hot_path_allocations();
}

LocalBrain& CapesSystem::local_brain(const char* what) {
  if (local_ == nullptr) {
    std::fprintf(stderr,
                 "CapesSystem: %s lives in capes_daemond under the tcp "
                 "transport; use training_fingerprint() / "
                 "total_train_steps() or brain_client()\n",
                 what);
    std::abort();
  }
  return *local_;
}

DrlEngine& CapesSystem::engine() { return local_brain("engine()").engine(); }

rl::ReplayDb& CapesSystem::replay() {
  return local_brain("replay()").replay();
}

InterfaceDaemon& CapesSystem::interface_daemon() {
  return local_brain("interface_daemon()").daemon();
}

waldb::Database* CapesSystem::database() {
  return local_ != nullptr ? local_->database() : nullptr;
}

std::uint32_t CapesSystem::training_fingerprint() const {
  return brain_->weights_fingerprint();
}

std::size_t CapesSystem::total_train_steps() const {
  return brain_->total_train_steps();
}

std::vector<double> CapesSystem::parameter_values() const {
  std::vector<double> flat;
  flat.reserve(space_->num_parameters());
  for (const auto& domain : domains_) {
    flat.insert(flat.end(), domain->param_values().begin(),
                domain->param_values().end());
  }
  return flat;
}

void CapesSystem::sample_all_agents(std::int64_t t) {
  if (pool_ == nullptr) {
    for (MonitoringAgent* agent : agents_flat_) agent->sample(t);
  } else {
    // Fan collection/encoding/publishing out across all nodes of all
    // domains (collectors touch per-node state only, and the channel is
    // thread-safe). Worker count and publish order cannot change results:
    // message fates are pure per-message hashes and the daemon's drain
    // sorts by (deliver tick, sender) — so the replay DB sees exactly
    // the writes of the single-threaded path, in the same order.
    pool_->parallel_for(agents_flat_.size(),
                        [&](std::size_t i) { agents_flat_[i]->sample(t); });
  }
  // The brain's sampling-tick drain: take whatever has arrived by now
  // (this tick's messages under sync; under sim whichever earlier sends
  // are due). Stragglers surface on a later tick; drops never do — the
  // replay DB's missing-entry tolerance absorbs them. A remote brain
  // ships each message as a kStatus frame, in the same deterministic
  // order the daemon ingests them.
  brain_->flush_status(t);
}

double RunResult::shard_imbalance() const {
  if (shard_events.empty()) return 1.0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t e : shard_events) {
    total += e;
    if (e > max) max = e;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shard_events.size());
  return static_cast<double>(max) / mean;
}

void CapesSystem::replan_shards() {
  if (sim_.num_shards() <= 1 ||
      planner_.kind() == sim::ShardPlanKind::kStatic) {
    return;
  }
  // Window the counts: plan from events executed since the last plan, so
  // each phase is packed by the most recent behavior, not run history.
  sim_.domain_executed(domain_events_scratch_, domains_.size());
  if (domain_events_baseline_.size() != domain_events_scratch_.size()) {
    domain_events_baseline_.assign(domain_events_scratch_.size(), 0);
  }
  bool any = false;
  for (std::size_t d = 0; d < domain_events_scratch_.size(); ++d) {
    const std::uint64_t delta =
        domain_events_scratch_[d] - domain_events_baseline_[d];
    domain_events_baseline_[d] = domain_events_scratch_[d];
    domain_events_scratch_[d] = delta;
    if (delta > 0) any = true;
  }
  // First boundary with no events yet (no warmup ran): stay on the
  // deterministic round-robin fallback.
  if (!any) return;
  const sim::ShardPlan next = planner_.plan(domain_events_scratch_);
  bool moved = false;
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    const std::size_t from = shard_plan_.shard_of_domain[d];
    const std::size_t to = next.shard_of_domain[d];
    if (from == to) continue;
    sim_.migrate_domain(static_cast<std::uint32_t>(d), from, to);
    domains_[d]->attach_sim_shard(&sim_, to);
    moved = true;
  }
  shard_plan_ = next;
  if (moved) ++shard_replans_;
}

sim::FaultCounters CapesSystem::fault_counters() const {
  sim::FaultCounters total;
  for (const auto& injector : injectors_) {
    const sim::FaultCounters& c = injector->counters();
    total.faults_injected += c.faults_injected;
    total.ost_crashes += c.ost_crashes;
    total.stragglers += c.stragglers;
    total.partitions += c.partitions;
    total.ticks_degraded += c.ticks_degraded;
  }
  return total;
}

void CapesSystem::inject_faults() {
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    ControlDomain& domain = *domains_[d];
    // Bind the domain's shard: the injector schedules its apply/restore
    // transitions as events at the current time, and the binding routes
    // them into the domain's tagged queue — so they execute first in the
    // next advance, count against the domain, and migrate with it under
    // the rate shard plan.
    const auto binding = domain.bind_sim_shard();
    sim::FaultInjector& injector = *injectors_[d];
    injector.on_tick(tick_);
    if (capture_ != nullptr) {
      for (const sim::FaultEvent& event : injector.last_events()) {
        const std::uint8_t kind = static_cast<std::uint8_t>(event.kind);
        capture_->record(capture::RecordType::kFault, tick_, 0,
                         event.node_key, &kind, 1);
      }
    }
  }
}

void CapesSystem::accumulate_shard_stats(RunResult& result) {
  const auto& events = sim_.last_advance_events();
  const auto& busy = sim_.last_advance_busy_ns();
  if (events.empty()) return;
  std::size_t max_events = 0;
  std::uint64_t max_busy = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i] > max_events) max_events = events[i];
    if (busy[i] > max_busy) max_busy = busy[i];
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    result.shard_events[i] += events[i];
    result.barrier_wait_events += max_events - events[i];
    result.shard_barrier_wait_ns[i] += max_busy - busy[i];
  }
}

void CapesSystem::on_sampling_tick(RunResult& result, RunPhase mode) {
  const std::int64_t t = tick_;

  // Allocation audit: tally brackets cover the CAPES control path only
  // (see hot_path_allocations()); the bits between brackets — domain
  // performance sampling, result appends, listeners — are excluded.
  util::AllocTally alloc_tally;

  // 1. Monitoring Agents sample and ship PIs (stored in the replay DB).
  sample_all_agents(t);
  hot_path_allocs_ += alloc_tally.delta();

  // 2. Reward: each domain's objective over its own last-tick
  //    performance; the shared brain trains on the cross-domain mean
  //    (scale-stable in the domain count). Throughput aggregates.
  //    With a pool, performance sampling and the objective fan out per
  //    domain — each worker touches only its own domain's adapter (the
  //    same isolation the monitoring fan-out relies on) and writes to
  //    its own scratch slot; the reduction below runs serially in domain
  //    order, so sums match the serial path bit for bit. At 128 domains
  //    this loop was the next serial cost at the barrier.
  if (pool_ != nullptr && domains_.size() > 1) {
    pool_->parallel_for(domains_.size(), [&](std::size_t d) {
      ControlDomain& domain = *domains_[d];
      // Bind the domain's shard: sampling is read-only today, but any
      // event an adapter ever schedules from here belongs in its queue.
      const auto binding = domain.bind_sim_shard();
      domain_perf_scratch_[d] = domain.adapter().sample_performance();
      domain_reward_scratch_[d] = domain.objective()(domain_perf_scratch_[d]);
    });
  } else {
    for (std::size_t d = 0; d < domains_.size(); ++d) {
      ControlDomain& domain = *domains_[d];
      const auto binding = domain.bind_sim_shard();
      domain_perf_scratch_[d] = domain.adapter().sample_performance();
      domain_reward_scratch_[d] = domain.objective()(domain_perf_scratch_[d]);
    }
  }
  double throughput_sum = 0.0;
  double latency_sum = 0.0;
  double reward_sum = 0.0;
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    domains_[d]->set_last_sample(domain_perf_scratch_[d],
                                 domain_reward_scratch_[d]);
    throughput_sum += domain_perf_scratch_[d].throughput_mbs();
    latency_sum += domain_perf_scratch_[d].avg_latency_ms;
    reward_sum += domain_reward_scratch_[d];
  }
  const double num_domains = static_cast<double>(domains_.size());
  const double reward = reward_sum / num_domains;
  const double latency = latency_sum / num_domains;
  alloc_tally.restart();
  brain_->send_reward(t, reward, throughput_sum, latency);
  hot_path_allocs_ += alloc_tally.delta();
  if (capture_) {
    const double values[3] = {reward, throughput_sum, latency};
    capture_->record_f64s(capture::RecordType::kReward, t, 0, 0, values, 3);
  }
  result.throughput.add(throughput_sum);
  result.latency_ms.add(latency);
  result.rewards.push_back(reward);

  // 3. Action tick: the engine suggests one composite action, the daemon
  //    checks it and broadcasts it to the owning domain's slice.
  // 4. Training steps (the DRL Engine trains continuously, §3.4).
  //    Under a remote brain both steps run in capes_daemond behind one
  //    tick barrier. The brain audits its own compute + route span;
  //    broadcast delivery and training stay outside the audit (applying
  //    parameters runs the target system's setters, which may schedule
  //    simulator events).
  const TickOutcome outcome = brain_->end_tick(t, mode);
  result.train_steps += outcome.train_steps;
  if (outcome.train_steps > 0) {
    total_train_steps_ = outcome.total_train_steps;
    TrainStepEvent event;
    event.tick = t;
    event.steps = outcome.train_steps;
    event.total_steps = total_train_steps_;
    for (const auto& listener : train_step_listeners_) listener(event);
  }

  if (!tick_listeners_.empty()) {
    TickEvent event;
    event.phase = mode;
    event.tick = t;
    event.throughput_mbs = throughput_sum;
    event.latency_ms = latency;
    event.reward = reward;
    for (const auto& listener : tick_listeners_) listener(event);
  }
  ++tick_;
}

RunResult CapesSystem::run_phase(std::int64_t ticks, RunPhase mode) {
  // Phase boundary: the rate planner re-packs domains onto shards by the
  // counts of the window since the last plan (and migrates the moved
  // domains' pending events) before any of this phase's ticks run.
  replan_shards();
  RunResult result;
  result.start_tick = tick_;
  const std::size_t num_shards = sim_.num_shards();
  if (num_shards > 1) {
    result.shard_events.assign(num_shards, 0);
    result.shard_barrier_wait_ns.assign(num_shards, 0);
  }
  if (capture_) {
    const std::uint8_t phase = static_cast<std::uint8_t>(mode);
    capture_->record(capture::RecordType::kPhaseBegin, tick_, 0, 0, &phase, 1);
  }
  brain_->begin_phase(tick_, mode);
  const bus::ChannelStats bus_before = brain_->stats();
  const sim::FaultCounters faults_before = fault_counters();
  const auto tick_us = sim::seconds(opts_.sampling_tick_s);
  for (std::int64_t i = 0; i < ticks; ++i) {
    // Fault schedule first (serial, at the barrier): transitions due
    // this tick are queued as events at the current time, so the advance
    // below executes them before any simulated time passes.
    if (!injectors_.empty()) inject_faults();
    // One sampling tick: every simulator shard advances to the tick
    // boundary (concurrently when there is a pool and more than one
    // shard), and run_for returns only at the time-synced barrier —
    // after which the daemon drains, the engine acts, and delayed
    // broadcasts land, all single-threaded again.
    sim_.run_for(tick_us, pool_.get());
    if (num_shards > 1) accumulate_shard_stats(result);
    on_sampling_tick(result, mode);
  }
  // Learner barrier: phase results and anything read after this
  // (fingerprints, logs, train-step counts) reflect all of the phase's
  // training. Remotely that barrier is the kPhaseEnd round trip, whose
  // ack refreshes the cached fingerprint/step count.
  brain_->end_phase(tick_, mode);
  result.end_tick = tick_;
  if (capture_) {
    const std::uint8_t phase = static_cast<std::uint8_t>(mode);
    capture_->record(capture::RecordType::kPhaseEnd, tick_, 0, 0, &phase, 1);
  }
  const bus::ChannelStats bus_after = brain_->stats();
  result.messages_dropped = bus_after.dropped - bus_before.dropped;
  result.messages_late = bus_after.late - bus_before.late;
  const sim::FaultCounters faults_after = fault_counters();
  result.faults_injected = faults_after.faults_injected - faults_before.faults_injected;
  result.ost_crashes = faults_after.ost_crashes - faults_before.ost_crashes;
  result.stragglers = faults_after.stragglers - faults_before.stragglers;
  result.partitions = faults_after.partitions - faults_before.partitions;
  result.ticks_degraded = faults_after.ticks_degraded - faults_before.ticks_degraded;
  // Regime shifts over the phase's throughput series: computed for every
  // phase (replay recomputes it from the captured per-tick rewards, so
  // live and replay reports agree whether or not faults fired).
  result.regime_shifts =
      stats::pelt_mean_shift(result.throughput.samples()).size();
  return result;
}

RunResult CapesSystem::run_training(std::int64_t ticks) {
  return run_phase(ticks, RunPhase::kTraining);
}

RunResult CapesSystem::run_baseline(std::int64_t ticks) {
  reset_parameters();
  return run_phase(ticks, RunPhase::kBaseline);
}

RunResult CapesSystem::run_tuned(std::int64_t ticks) {
  return run_phase(ticks, RunPhase::kTuned);
}

std::uint64_t CapesSystem::monitoring_bytes_sent() const {
  std::uint64_t total = 0;
  for (const auto& domain : domains_) total += domain->monitoring_bytes_sent();
  return total;
}

bool CapesSystem::save_model(const std::string& path) const {
  return brain_->save_model(path);
}

bool CapesSystem::load_model(const std::string& path) {
  return brain_->load_model(path);
}

}  // namespace capes::core
