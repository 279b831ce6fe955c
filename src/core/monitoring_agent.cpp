#include "core/monitoring_agent.hpp"

namespace capes::core {

MonitoringAgent::MonitoringAgent(std::size_t local_node, std::size_t global_node,
                                 TargetSystemAdapter& adapter, PiChannel& channel)
    : adapter_(adapter),
      local_node_(local_node),
      encoder_(global_node, adapter.pis_per_node()),
      channel_(channel) {}

void MonitoringAgent::sample(std::int64_t t) {
  publish(t, collect_and_encode(t));
}

std::vector<std::uint8_t> MonitoringAgent::collect_and_encode(std::int64_t t) {
  // Collection is local to the node and happens every tick — only the
  // send can be lost. Skipping the encode on a to-be-dropped tick keeps
  // the encoder state equal to the last delivered message, so the
  // daemon's differential decoder stays in sync (the next successful
  // message carries the accumulated delta).
  //
  // Scratch discipline: the PI vector lives in the per-tick arena (a
  // pointer bump once warm) and the encoded message goes into a recycled
  // payload buffer, so the steady-state sample path allocates nothing.
  arena_.reset();
  float* pis = arena_.alloc_array<float>(encoder_.num_pis());
  adapter_.collect_observation_into(local_node_, pis);
  if (channel_.will_drop(node(), t)) return {};
  std::vector<std::uint8_t> msg = acquire_payload();
  encoder_.encode_into(t, pis, encoder_.num_pis(), msg);
  return msg;
}

void MonitoringAgent::publish(std::int64_t t, std::vector<std::uint8_t> msg) {
  // An empty msg means collect_and_encode already saw the drop verdict;
  // publish recomputes the same pure fate and counts it as dropped. A
  // payload the transport drops here is simply destroyed — drops are off
  // the steady-state path, so losing the buffer only means the pool
  // refills on a later tick.
  channel_.publish(node(), t, std::move(msg));
}

std::vector<std::uint8_t> MonitoringAgent::acquire_payload() {
  if (free_payloads_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(free_payloads_.back());
  free_payloads_.pop_back();
  return buf;
}

void MonitoringAgent::recycle_payload(std::vector<std::uint8_t>&& buf) {
  // A small cap bounds the pool to the in-flight message count (one or
  // two under delayed transports); excess buffers just free.
  constexpr std::size_t kMaxFreePayloads = 4;
  if (free_payloads_.size() >= kMaxFreePayloads) return;
  buf.clear();
  free_payloads_.push_back(std::move(buf));
}

}  // namespace capes::core
