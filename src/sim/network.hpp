#pragma once
// Network model for the simulated cluster: per-node full-duplex NIC links
// plus a shared switch fabric with a finite aggregate bandwidth (the
// evaluation testbed's gigabit ethernet measured ~500 MB/s aggregate).
// Transfers serialize on the sender's uplink, the fabric, and the
// receiver's downlink; a base propagation/processing latency is added.
// Optional jitter models the "not isolated network" noise the paper
// deliberately kept in its evaluation (§4.2).

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace capes::sim {

using NodeId = std::size_t;

struct NetworkOptions {
  double link_bandwidth_mbs = 118.0;   ///< per-NIC MB/s (gigabit ethernet)
  double fabric_bandwidth_mbs = 500.0; ///< aggregate switch MB/s
  TimeUs base_latency = 200;           ///< one-way propagation+stack, us
  double jitter_fraction = 0.0;        ///< +- uniform jitter on latency
};

/// Bandwidth-limited cluster network.
class Network {
 public:
  Network(Simulator& sim, std::size_t num_nodes, NetworkOptions opts,
          util::Rng rng);

  std::size_t num_nodes() const { return node_up_busy_until_.size(); }
  const NetworkOptions& options() const { return opts_; }

  /// Send `bytes` from `src` to `dst`; `on_delivered` fires at the
  /// receiver when the last byte arrives.
  void send(NodeId src, NodeId dst, std::uint64_t bytes,
            Callback on_delivered);

  /// Estimated current one-way latency to `dst` for a small message —
  /// base latency plus the receiver downlink's queuing backlog. This is
  /// what the Monitoring Agent reports as the "ping latency" PI.
  TimeUs estimate_latency(NodeId src, NodeId dst) const;

  std::uint64_t total_bytes_sent() const { return total_bytes_; }

 private:
  TimeUs transfer_time(double bandwidth_mbs, std::uint64_t bytes) const;

  Simulator& sim_;
  NetworkOptions opts_;
  util::Rng rng_;
  std::vector<TimeUs> node_up_busy_until_;
  std::vector<TimeUs> node_down_busy_until_;
  TimeUs fabric_busy_until_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace capes::sim
