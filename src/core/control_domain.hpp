#pragma once
// Control domain: one target cluster under CAPES control. The Figure 1
// architecture deliberately separates per-node agents from the central
// Interface Daemon + DRL Engine; a ControlDomain bundles everything that
// is per-cluster — the adapter, its workload-facing objective, the
// Monitoring/Control Agents, the local action space, and the current
// parameter vector — so one CapesSystem (one brain) can tune N clusters.
//
// Namespacing: domains share one Replay DB and one composite action
// space. A domain owns a contiguous slice of each namespace:
//   global node index   = node_offset()   + local node
//   global action index = action_offset() + local action - 1
//     (global/local index 0 is the shared NULL action; a domain's
//      non-null local actions 1..2P map onto its slice)
//   global parameter    = param_offset()  + local parameter

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/adapter.hpp"
#include "core/control_agent.hpp"
#include "core/monitoring_agent.hpp"
#include "core/objective.hpp"
#include "rl/action_space.hpp"
#include "sim/simulator.hpp"

namespace capes::core {

/// What a caller hands to CapesSystem to add one domain. The adapter must
/// outlive the system; `objective` empty means "use the system default".
struct ControlDomainSpec {
  TargetSystemAdapter* adapter = nullptr;
  ObjectiveFunction objective;
  std::string name;  ///< label for reports; "" -> "c<index>"
};

class ControlDomain {
 public:
  ControlDomain(std::size_t index, std::string name,
                TargetSystemAdapter& adapter, ObjectiveFunction objective,
                std::size_t node_offset, std::size_t action_offset,
                std::size_t param_offset);

  std::size_t index() const { return index_; }
  const std::string& name() const { return name_; }
  TargetSystemAdapter& adapter() { return adapter_; }
  const ObjectiveFunction& objective() const { return objective_; }

  /// The domain-local action space (NULL + 2 actions per local parameter).
  const rl::ActionSpace& space() const { return space_; }

  // ---- node namespace ----------------------------------------------------
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t node_offset() const { return node_offset_; }
  std::size_t global_node(std::size_t local) const {
    return node_offset_ + local;
  }
  bool owns_global_node(std::size_t global) const {
    return global >= node_offset_ && global < node_offset_ + num_nodes_;
  }
  std::size_t local_node(std::size_t global) const {
    return global - node_offset_;
  }

  // ---- action namespace --------------------------------------------------
  std::size_t action_offset() const { return action_offset_; }
  /// Non-null actions this domain contributes to the composite space.
  std::size_t num_slice_actions() const { return space_.num_actions() - 1; }
  bool owns_global_action(std::size_t global) const {
    return global >= action_offset_ &&
           global < action_offset_ + num_slice_actions();
  }
  /// Precondition: owns_global_action(global). Result is in [1, 2P].
  std::size_t local_action(std::size_t global) const {
    return global - action_offset_ + 1;
  }
  std::size_t global_action(std::size_t local) const {
    return local == 0 ? 0 : action_offset_ + local - 1;
  }

  // ---- parameter namespace -----------------------------------------------
  std::size_t param_offset() const { return param_offset_; }
  std::size_t num_parameters() const { return space_.num_parameters(); }
  std::vector<double>& param_values() { return param_values_; }
  const std::vector<double>& param_values() const { return param_values_; }
  /// Reset to initial values and push them into the target system.
  void reset_parameters();
  /// Hand a checked parameter vector to every Control Agent.
  void deliver_parameters(const std::vector<double>& values);

  // ---- simulator shard (wired by CapesSystem) ----------------------------
  /// This domain's shard of the sharded simulator event loop. Barrier-time
  /// calls into the domain's target system (parameter application,
  /// workload restarts) can schedule follow-up events from outside any
  /// executing event; binding the owned shard routes them into this
  /// domain's queue instead of shard 0.
  void attach_sim_shard(const sim::Simulator* sim, std::size_t shard) {
    sim_ = sim;
    sim_shard_ = shard;
  }
  std::size_t sim_shard() const { return sim_shard_; }
  /// Scoped binding of the owned shard, tagged with this domain's index
  /// so events scheduled at barrier time are counted against (and migrate
  /// with) the domain; inactive (a no-op) when no shard was attached.
  sim::Simulator::ShardBinding bind_sim_shard() const {
    if (sim_ == nullptr) return sim::Simulator::no_binding();
    return sim_->bind_shard(sim_shard_, static_cast<std::uint32_t>(index_));
  }

  // ---- agents (wired by CapesSystem) -------------------------------------
  void add_monitoring_agent(std::unique_ptr<MonitoringAgent> agent);
  void add_control_agent(std::unique_ptr<ControlAgent> agent);
  const std::vector<std::unique_ptr<MonitoringAgent>>& monitoring_agents() const {
    return monitoring_agents_;
  }
  const std::vector<std::unique_ptr<ControlAgent>>& control_agents() const {
    return control_agents_;
  }
  std::uint64_t monitoring_bytes_sent() const;

  // ---- last-tick snapshot (per-domain observability) ---------------------
  void set_last_sample(const PerfSample& perf, double reward) {
    last_perf_ = perf;
    last_reward_ = reward;
  }
  const PerfSample& last_perf() const { return last_perf_; }
  double last_reward() const { return last_reward_; }

 private:
  std::size_t index_;
  std::string name_;
  const sim::Simulator* sim_ = nullptr;
  std::size_t sim_shard_ = 0;
  TargetSystemAdapter& adapter_;
  ObjectiveFunction objective_;
  rl::ActionSpace space_;
  std::size_t num_nodes_;
  std::size_t node_offset_;
  std::size_t action_offset_;
  std::size_t param_offset_;
  std::vector<double> param_values_;
  std::vector<std::unique_ptr<MonitoringAgent>> monitoring_agents_;
  std::vector<std::unique_ptr<ControlAgent>> control_agents_;
  PerfSample last_perf_;
  double last_reward_ = 0.0;
};

}  // namespace capes::core
