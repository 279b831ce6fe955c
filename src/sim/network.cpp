#include "sim/network.hpp"

#include <algorithm>
#include <cassert>

namespace capes::sim {

Network::Network(Simulator& sim, std::size_t num_nodes, NetworkOptions opts,
                 util::Rng rng)
    : sim_(sim),
      opts_(opts),
      rng_(rng),
      node_up_busy_until_(num_nodes, 0),
      node_down_busy_until_(num_nodes, 0) {}

TimeUs Network::transfer_time(double bandwidth_mbs, std::uint64_t bytes) const {
  const double us =
      static_cast<double>(bytes) / (bandwidth_mbs * 1e6) * 1e6;
  return static_cast<TimeUs>(us) + 1;
}

void Network::send(NodeId src, NodeId dst, std::uint64_t bytes,
                   Callback on_delivered) {
  assert(src < num_nodes() && dst < num_nodes());
  total_bytes_ += bytes;
  const TimeUs now = sim_.now();

  // Serialize on the sender uplink.
  const TimeUs up_start = std::max(now, node_up_busy_until_[src]);
  const TimeUs up_done = up_start + transfer_time(opts_.link_bandwidth_mbs, bytes);
  node_up_busy_until_[src] = up_done;

  // Then on the shared fabric.
  const TimeUs fab_start = std::max(up_done, fabric_busy_until_);
  const TimeUs fab_done =
      fab_start + transfer_time(opts_.fabric_bandwidth_mbs, bytes);
  fabric_busy_until_ = fab_done;

  // Then on the receiver downlink.
  const TimeUs down_start = std::max(fab_done, node_down_busy_until_[dst]);
  const TimeUs down_done =
      down_start + transfer_time(opts_.link_bandwidth_mbs, bytes);
  node_down_busy_until_[dst] = down_done;

  TimeUs latency = opts_.base_latency;
  if (opts_.jitter_fraction > 0.0) {
    const double j = rng_.uniform(-opts_.jitter_fraction, opts_.jitter_fraction);
    latency += static_cast<TimeUs>(static_cast<double>(latency) * j);
  }
  sim_.schedule_at(down_done + latency, std::move(on_delivered));
}

TimeUs Network::estimate_latency(NodeId src, NodeId dst) const {
  (void)src;
  const TimeUs now = sim_.now();
  const TimeUs backlog = std::max<TimeUs>(0, node_down_busy_until_[dst] - now);
  return opts_.base_latency + backlog;
}

}  // namespace capes::sim
