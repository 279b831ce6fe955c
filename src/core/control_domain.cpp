#include "core/control_domain.hpp"

namespace capes::core {

ControlDomain::ControlDomain(std::size_t index, std::string name,
                             TargetSystemAdapter& adapter,
                             ObjectiveFunction objective,
                             std::size_t node_offset,
                             std::size_t action_offset,
                             std::size_t param_offset)
    : index_(index),
      name_(std::move(name)),
      adapter_(adapter),
      objective_(std::move(objective)),
      space_(adapter.tunable_parameters()),
      num_nodes_(adapter.num_nodes()),
      node_offset_(node_offset),
      action_offset_(action_offset),
      param_offset_(param_offset),
      param_values_(space_.initial_values()) {
  if (name_.empty()) {
    name_ = std::to_string(index_);
    name_.insert(name_.begin(), 'c');
  }
}

void ControlDomain::reset_parameters() {
  param_values_ = space_.initial_values();
  // set_parameters may schedule (e.g. a rate-limit change re-arming a
  // cluster's send loop) — keep those events in this domain's shard.
  const auto binding = bind_sim_shard();
  adapter_.set_parameters(param_values_);
}

void ControlDomain::deliver_parameters(const std::vector<double>& values) {
  // Same binding as reset_parameters: the agents run the setters.
  const auto binding = bind_sim_shard();
  for (const auto& agent : control_agents_) agent->on_action_message(values);
}

void ControlDomain::add_monitoring_agent(std::unique_ptr<MonitoringAgent> agent) {
  monitoring_agents_.push_back(std::move(agent));
}

void ControlDomain::add_control_agent(std::unique_ptr<ControlAgent> agent) {
  control_agents_.push_back(std::move(agent));
}

std::uint64_t ControlDomain::monitoring_bytes_sent() const {
  std::uint64_t total = 0;
  for (const auto& agent : monitoring_agents_) total += agent->bytes_sent();
  return total;
}

}  // namespace capes::core
