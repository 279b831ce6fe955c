#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/config_io.hpp"
#include "util/config.hpp"
#include "util/options.hpp"
#include "workload/registry.hpp"

namespace capes::core {

// ---------------------------------------------------------------------------
// Reports and sinks
// ---------------------------------------------------------------------------

const PhaseReport* ExperimentReport::find(RunPhase phase) const {
  for (auto it = phases.rbegin(); it != phases.rend(); ++it) {
    if (it->phase == phase) return &*it;
  }
  return nullptr;
}

double ExperimentReport::tuned_gain_percent() const {
  const PhaseReport* baseline = find(RunPhase::kBaseline);
  const PhaseReport* tuned = find(RunPhase::kTuned);
  if (!baseline || !tuned || baseline->throughput.mean <= 0.0) return 0.0;
  return (tuned->throughput.mean / baseline->throughput.mean - 1.0) * 100.0;
}

std::string run_result_csv(const RunResult& result) {
  std::ostringstream out;
  out << "tick,throughput_mbs,latency_ms,reward\n";
  const auto& tput = result.throughput.samples();
  const auto& lat = result.latency_ms.samples();
  for (std::size_t i = 0; i < tput.size(); ++i) {
    out << (result.start_tick + static_cast<std::int64_t>(i)) << ',' << tput[i]
        << ',' << (i < lat.size() ? lat[i] : 0.0) << ','
        << (i < result.rewards.size() ? result.rewards[i] : 0.0) << '\n';
  }
  return out.str();
}

PhaseObserver csv_phase_sink(std::string prefix) {
  return [prefix = std::move(prefix)](const PhaseReport& report) {
    const std::string path = prefix + "_" + report.label + ".csv";
    std::ofstream out(path);
    out << run_result_csv(report.result);
    // Observers have no error channel back to the phase runner; an
    // unwritable sink must at least say so instead of dropping data.
    if (!out) std::fprintf(stderr, "csv_phase_sink: cannot write %s\n",
                           path.c_str());
  };
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

ExperimentBuilder& ExperimentBuilder::preset(EvaluationPreset p) {
  preset_ = std::move(p);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::config_file(std::string path) {
  config_file_ = std::move(path);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::workload(std::string spec) {
  workload_spec_ = std::move(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::adapter(TargetSystemAdapter& a) {
  adapter_ = &a;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::add_cluster(std::string workload_spec) {
  ExtraDomain extra;
  extra.workload_spec = std::move(workload_spec);
  extra_domains_.push_back(std::move(extra));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::add_cluster(TargetSystemAdapter& a) {
  ExtraDomain extra;
  extra.adapter = &a;
  extra_domains_.push_back(std::move(extra));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::worker_threads(std::size_t threads) {
  worker_threads_ = threads;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::sim_shards(std::size_t shards) {
  sim_shards_ = shards;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::shard_plan(std::string spec) {
  shard_plan_spec_ = std::move(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::transport(std::string spec) {
  transport_spec_ = std::move(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::faults(std::string spec) {
  faults_spec_ = std::move(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::learner(std::string spec) {
  learner_spec_ = std::move(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::learner_checkpoint_ticks(
    std::size_t ticks) {
  learner_checkpoint_ticks_ = ticks;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::capes_options(CapesOptions opts) {
  capes_options_ = std::move(opts);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::objective(ObjectiveFunction f) {
  objective_ = std::move(f);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::monitor_servers(bool on) {
  monitor_servers_ = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::tune_write_cache(bool on) {
  tune_write_cache_ = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::train_ticks(std::int64_t ticks) {
  train_ticks_ = ticks;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::eval_ticks(std::int64_t ticks) {
  eval_ticks_ = ticks;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::warmup_seconds(double s) {
  warmup_seconds_ = s;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::replay_db_dir(std::string dir) {
  replay_db_dir_ = std::move(dir);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::capture(std::string path) {
  capture_path_ = std::move(path);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::on_tick(TickObserver f) {
  if (f) tick_observers_.push_back(std::move(f));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::on_train_step(TrainStepObserver f) {
  if (f) train_step_observers_.push_back(std::move(f));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::on_phase_end(PhaseObserver f) {
  if (f) phase_observers_.push_back(std::move(f));
  return *this;
}

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Per-domain cluster seed: domain 0 keeps the preset's seed verbatim
/// (single-cluster builds stay bit-identical); later domains mix in
/// their index so replicated workload specs still diverge.
std::uint64_t domain_cluster_seed(std::uint64_t base, std::size_t domain) {
  return base ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(domain));
}

}  // namespace

std::unique_ptr<Experiment> ExperimentBuilder::build(std::string* error) {
  if (adapter_ && !workload_spec_.empty()) {
    fail(error,
         "workload() requires the bundled Lustre cluster; a custom adapter() "
         "brings its own load generator");
    return nullptr;
  }
  if (adapter_ && (monitor_servers_ || tune_write_cache_)) {
    fail(error,
         "monitor_servers()/tune_write_cache() are Lustre-cluster options and "
         "do not apply to a custom adapter()");
    return nullptr;
  }
  if (!adapter_ && workload_spec_.empty() && extra_domains_.empty()) {
    fail(error,
         "no target system: pick a workload() for the bundled Lustre cluster "
         "or pass a custom adapter()");
    return nullptr;
  }

  EvaluationPreset preset =
      preset_ ? *preset_ : fast_preset(seed_.value_or(42));

  if (!config_file_.empty()) {
    util::Config cfg;
    if (!cfg.parse_file(config_file_)) {
      fail(error, "cannot parse config file '" + config_file_ + "'");
      return nullptr;
    }
    // Conf files are overlays whose numbers merely clamp, but a typo'd
    // enum value or shard count must not silently fall back (to a perfect
    // network, inline training, round-robin placement or the serial loop).
    std::string check_error;
    if (!check_config(cfg, &check_error)) {
      fail(error, "config file '" + config_file_ + "': " + check_error);
      return nullptr;
    }
    preset.capes = capes_options_from_config(cfg, preset.capes);
    preset.cluster = cluster_options_from_config(cfg, preset.cluster);
  }
  // Opt-in only: a preset or config file that already enables the §6
  // extensions keeps them.
  if (monitor_servers_) preset.cluster.monitor_servers = true;
  if (tune_write_cache_) preset.cluster.tune_write_cache = true;
  if (capes_options_) preset.capes = *capes_options_;
  // An explicit transport() wins over the preset, config file, and
  // capes_options(). The spec validates here so a typo is a build()
  // error, not a silent sync fallback.
  if (transport_spec_) {
    std::string transport_error;
    if (!bus::parse_transport_spec(*transport_spec_, &preset.capes.transport,
                                   &transport_error)) {
      fail(error, "invalid transport spec '" + *transport_spec_ +
                      "': " + transport_error);
      return nullptr;
    }
  }
  // Learner mode, shard plan and faults mirror the transport precedence
  // and validation.
  if (learner_spec_) {
    const auto mode = util::find_name(kLearnerModeNames, *learner_spec_);
    if (!mode) {
      fail(error, "invalid learner spec '" + *learner_spec_ + "' (expected " +
                      util::join_names(kLearnerModeNames) + ")");
      return nullptr;
    }
    preset.capes.engine.learner_mode = static_cast<LearnerMode>(*mode);
  }
  if (learner_checkpoint_ticks_) {
    preset.capes.engine.checkpoint_ticks = *learner_checkpoint_ticks_;
  }
  if (shard_plan_spec_) {
    std::string plan_error;
    if (!sim::parse_shard_plan_spec(*shard_plan_spec_,
                                    &preset.capes.shard_plan, &plan_error)) {
      fail(error,
           "invalid shard plan spec '" + *shard_plan_spec_ + "': " + plan_error);
      return nullptr;
    }
  }
  if (faults_spec_) {
    std::string fault_error;
    if (!sim::parse_fault_spec(*faults_spec_, &preset.capes.faults,
                               &fault_error)) {
      fail(error, "invalid fault spec '" + *faults_spec_ + "': " + fault_error);
      return nullptr;
    }
  }
  // Fault fates are pure functions of the simulated tick clock; a real
  // control network has no such clock to share, so the combination is a
  // configuration error, not a degraded mode.
  if (preset.capes.faults.enabled() &&
      preset.capes.transport.kind == bus::TransportKind::kTcp) {
    fail(error,
         "fault injection requires a simulated control network (sync or sim "
         "transport); tcp cannot replay deterministic fault fates");
    return nullptr;
  }
  // An explicit seed() wins over whatever seeds the preset, config file,
  // or capes_options() carried.
  if (seed_) apply_seed(&preset, *seed_);
  if (replay_db_dir_) preset.capes.replay_db_dir = *replay_db_dir_;
  if (capture_path_) preset.capes.capture_path = *capture_path_;
  if (worker_threads_) preset.capes.worker_threads = *worker_threads_;
  if (sim_shards_) preset.capes.sim_shards = *sim_shards_;

  // Domain plan: domain 0 from workload()/adapter(), then every
  // add_cluster() in call order (add_cluster() alone starts at domain 0).
  struct DomainPlan {
    std::string spec;
    TargetSystemAdapter* adapter = nullptr;
  };
  std::vector<DomainPlan> plan;
  if (adapter_ != nullptr) {
    plan.push_back({"", adapter_});
  } else if (!workload_spec_.empty()) {
    plan.push_back({workload_spec_, nullptr});
  }
  for (const ExtraDomain& extra : extra_domains_) {
    plan.push_back({extra.workload_spec, extra.adapter});
  }

  // Resolve the event-loop shard count against the domain count: "auto"
  // (0) means one queue per domain, and no request can exceed the domain
  // count (an idle extra queue would only add barrier work). The preset
  // records the resolved count so Experiment::preset() reports what
  // actually runs.
  preset.capes.sim_shards =
      preset.capes.sim_shards == 0
          ? plan.size()
          : std::min(preset.capes.sim_shards, plan.size());
  if (preset.capes.sim_shards < 1) preset.capes.sim_shards = 1;

  std::unique_ptr<Experiment> exp(new Experiment());
  exp->preset_ = preset;
  exp->warmup_seconds_ = warmup_seconds_;
  exp->default_train_ticks_ =
      train_ticks_ >= 0 ? train_ticks_ : preset.train_ticks_long;
  exp->default_eval_ticks_ =
      eval_ticks_ >= 0 ? eval_ticks_ : preset.eval_ticks;

  exp->sim_ = std::make_unique<sim::Simulator>();
  exp->sim_->configure_shards(preset.capes.sim_shards);

  // Startup placement comes from the planner's static plan — the same
  // single source CapesSystem's constructor uses — so cluster-construction
  // scheduling and the system's attach agree domain by domain.
  const sim::ShardPlan initial_plan =
      sim::ShardPlanner(preset.capes.shard_plan, plan.size(),
                        preset.capes.sim_shards)
          .static_plan();
  std::vector<ControlDomainSpec> specs;
  specs.reserve(plan.size());
  for (std::size_t d = 0; d < plan.size(); ++d) {
    Experiment::DomainRuntime runtime;
    if (plan[d].adapter != nullptr) {
      runtime.adapter = plan[d].adapter;
    } else {
      // Bind this domain's shard (tagged with the domain) while the
      // cluster wires itself up and the generator starts: every event
      // they schedule from outside the event loop lands in the domain's
      // own queue under the domain's tag (follow-ups scheduled by running
      // events inherit both automatically).
      const auto binding = exp->sim_->bind_shard(
          initial_plan.shard_of_domain[d], static_cast<std::uint32_t>(d));
      lustre::ClusterOptions cluster_opts = preset.cluster;
      cluster_opts.seed = domain_cluster_seed(cluster_opts.seed, d);
      runtime.cluster =
          std::make_unique<lustre::Cluster>(*exp->sim_, cluster_opts);
      runtime.workload = workload::Registry::instance().create(
          plan[d].spec, *runtime.cluster, error);
      if (!runtime.workload) return nullptr;  // builder state untouched so far
      runtime.workload->start();
      runtime.adapter = runtime.cluster.get();
    }
    // Mirror CapesSystem's constructor preconditions with proper error
    // reporting (the constructor itself aborts on misuse): uniform PI
    // width across the shared replay DB, and one target system per
    // domain — a shared adapter would double-read per-tick deltas and
    // break the distinct-node concurrency contract.
    for (const ControlDomainSpec& existing : specs) {
      if (existing.adapter == runtime.adapter) {
        std::string message = "domain ";
        message += std::to_string(d);
        message += " reuses another domain's adapter; each control domain "
                   "needs its own target system";
        fail(error, message);
        return nullptr;
      }
    }
    if (!specs.empty() &&
        runtime.adapter->pis_per_node() != specs[0].adapter->pis_per_node()) {
      std::string message = "all control domains must agree on pis_per_node: domain ";
      message += std::to_string(d);
      message += " has ";
      message += std::to_string(runtime.adapter->pis_per_node());
      message += ", domain 0 has ";
      message += std::to_string(specs[0].adapter->pis_per_node());
      fail(error, message);
      return nullptr;
    }
    ControlDomainSpec spec;
    spec.adapter = runtime.adapter;
    specs.push_back(std::move(spec));
    exp->domain_runtimes_.push_back(std::move(runtime));
  }

  // Observers and the objective are copied, not moved: the builder stays
  // fully intact, so it can build again (e.g. A/B runs varying one knob).
  exp->phase_observers_ = phase_observers_;
  exp->system_ = std::make_unique<CapesSystem>(*exp->sim_, specs,
                                               preset.capes, objective_);
  for (const auto& observer : tick_observers_) {
    exp->system_->add_tick_listener(observer);
  }
  for (const auto& observer : train_step_observers_) {
    exp->system_->add_train_step_listener(observer);
  }
  for (const auto& parameter : exp->system_->action_space().parameters()) {
    exp->report_.parameter_names.push_back(parameter.name);
  }
  exp->report_.final_parameters = exp->system_->parameter_values();
  return exp;
}

// ---------------------------------------------------------------------------
// Experiment
// ---------------------------------------------------------------------------

Experiment::~Experiment() = default;

void Experiment::ensure_warmed_up() {
  if (warmed_up_) return;
  warmed_up_ = true;
  if (warmup_seconds_ > 0.0) {
    sim_->run_for(sim::seconds(warmup_seconds_), system_->worker_pool());
  }
}

std::string Experiment::workload_name() const {
  // Single custom-adapter experiments keep the historical "" label; in a
  // multi-domain mix every domain appears positionally, with "custom"
  // standing in for adapter domains so the joined label stays truthful.
  if (domain_runtimes_.size() == 1 && !domain_runtimes_[0].workload) {
    return "";
  }
  std::string joined;
  for (const DomainRuntime& runtime : domain_runtimes_) {
    if (!joined.empty()) joined += '+';
    joined += runtime.workload ? runtime.workload->name() : "custom";
  }
  return joined;
}

PhaseReport Experiment::run_phase(RunPhase phase, std::int64_t ticks) {
  ensure_warmed_up();
  PhaseReport report;
  report.phase = phase;
  report.label = phase_name(phase);
  report.workload = workload_name();
  switch (phase) {
    case RunPhase::kTraining:
      report.result = system_->run_training(ticks);
      break;
    case RunPhase::kBaseline:
      report.result = system_->run_baseline(ticks);
      break;
    case RunPhase::kTuned:
    case RunPhase::kIdle:
      report.result = system_->run_tuned(ticks);
      break;
  }
  report.throughput = report.result.analyze();
  report.latency = report.result.analyze_latency();
  report_.phases.push_back(std::move(report));
  report_.final_parameters = system_->parameter_values();
  const PhaseReport& stored = report_.phases.back();
  for (const auto& observer : phase_observers_) observer(stored);
  return stored;
}

PhaseReport Experiment::run_training(std::int64_t ticks) {
  return run_phase(RunPhase::kTraining,
                   ticks >= 0 ? ticks : default_train_ticks_);
}

PhaseReport Experiment::run_baseline(std::int64_t ticks) {
  return run_phase(RunPhase::kBaseline,
                   ticks >= 0 ? ticks : default_eval_ticks_);
}

PhaseReport Experiment::run_tuned(std::int64_t ticks) {
  return run_phase(RunPhase::kTuned, ticks >= 0 ? ticks : default_eval_ticks_);
}

ExperimentReport Experiment::run(std::int64_t train_ticks,
                                 std::int64_t eval_ticks) {
  if (train_ticks < 0) train_ticks = default_train_ticks_;
  if (eval_ticks < 0) eval_ticks = default_eval_ticks_;
  if (train_ticks > 0) run_training(train_ticks);
  run_baseline(eval_ticks);
  run_tuned(eval_ticks);
  return report();
}

ExperimentReport Experiment::take_report() {
  ExperimentReport out = std::move(report_);
  report_ = ExperimentReport();
  report_.parameter_names = out.parameter_names;
  report_.final_parameters = out.final_parameters;
  return out;
}

bool Experiment::switch_workload(const std::string& spec, std::string* error) {
  return switch_workload(0, spec, error);
}

bool Experiment::switch_workload(std::size_t domain, const std::string& spec,
                                 std::string* error) {
  if (domain >= domain_runtimes_.size() ||
      !domain_runtimes_[domain].cluster) {
    if (error) *error = "switch_workload requires the bundled Lustre cluster";
    return false;
  }
  DomainRuntime& runtime = domain_runtimes_[domain];
  // Bind this domain's *live* shard across create+start, like build()
  // does at startup: a generator that schedules from its constructor must
  // land in the domain's queue too. The binding comes from the control
  // domain itself — the planner may have migrated it since startup, and a
  // cached copy here would silently re-bind the old queue.
  const auto binding = system_->domain(domain).bind_sim_shard();
  auto next =
      workload::Registry::instance().create(spec, *runtime.cluster, error);
  if (!next) return false;
  // Reap earlier retirees whose in-flight ops have certainly completed:
  // a stopped generator schedules nothing new, and single operations
  // finish in well under a simulated minute, so anything retired 60+
  // sim-seconds ago holds no pending callbacks. Keeps continuous
  // switch-train loops from growing this list without bound.
  const sim::TimeUs now = sim_->now();
  std::erase_if(retired_workloads_, [now](const RetiredWorkload& r) {
    return now - r.retired_at > sim::seconds(60);
  });
  if (runtime.workload) runtime.workload->request_stop();
  // The stopped generator stays alive so its in-flight ops drain naturally.
  retired_workloads_.push_back({std::move(runtime.workload), now});
  runtime.workload = std::move(next);
  runtime.workload->start();
  system_->notify_workload_change();
  return true;
}

void Experiment::notify_workload_change() { system_->notify_workload_change(); }

bool Experiment::save_model(const std::string& path) const {
  return system_->save_model(path);
}

bool Experiment::load_model(const std::string& path) {
  return system_->load_model(path);
}

}  // namespace capes::core
