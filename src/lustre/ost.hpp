#pragma once
// Object Storage Target (server side). Bulk RPCs are queued on the
// server's disk; metadata RPCs go through a CPU-bound metadata service
// queue (the MDS role, colocated on server 0 in the default layout, as
// small testbeds commonly do). Duplicate requests caused by client
// retransmissions are processed in full — this wasted work is the
// congestion-collapse mechanism.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "lustre/types.hpp"
#include "sim/disk.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace capes::lustre {

class Ost {
 public:
  /// `node` is this server's id in the network.
  Ost(sim::Simulator& sim, sim::Network& net, sim::NodeId node,
      const ClusterOptions& opts, util::Rng rng);

  /// Handle a fully received request; replies are sent back over the
  /// network to `req.client` when service completes.
  void on_request(const RpcRequest& req);

  /// Reply routing: invoked at the *client* node when a reply is fully
  /// delivered. Wired up by the cluster at construction time.
  using ReplyDelivery = std::function<void(std::size_t client_node, const RpcReply&)>;
  void set_reply_delivery(ReplyDelivery fn) { deliver_reply_ = std::move(fn); }

  sim::Disk& disk() { return *disk_; }
  const sim::Disk& disk() const { return *disk_; }
  sim::NodeId node() const { return node_; }

  std::uint64_t requests_served() const { return served_; }
  std::uint64_t metadata_served() const { return metadata_served_; }

  /// Fault hook (OST crash + timed restart): while down the server
  /// silently rejects incoming requests and suppresses replies for
  /// whatever was in flight, and going down discards every queued bulk
  /// and metadata request — clients observe the gap and recover through
  /// their own RPC retransmit machinery (the daemon never stalls on a
  /// dead server). set_down(false) resumes normal service; requests
  /// rejected during the outage are never replayed.
  void set_down(bool down);
  bool is_down() const { return down_; }
  /// Requests rejected (dropped on crash or refused while down).
  std::uint64_t requests_rejected() const { return rejected_; }

 private:
  void send_reply(const RpcRequest& req, sim::TimeUs process_time);
  void metadata_dispatch();

  sim::Simulator& sim_;
  sim::Network& net_;
  sim::NodeId node_;
  const ClusterOptions& opts_;
  util::Rng rng_;
  std::unique_ptr<sim::Disk> disk_;

  struct MetaPending {
    RpcRequest req;
    sim::TimeUs enqueue_time = 0;
  };
  std::deque<MetaPending> metadata_queue_;
  bool metadata_busy_ = false;
  /// The one metadata op in service while metadata_busy_; kept here so
  /// that its completion event captures only `this`.
  MetaPending metadata_in_service_;

  ReplyDelivery deliver_reply_;
  std::uint64_t served_ = 0;
  std::uint64_t metadata_served_ = 0;
  bool down_ = false;
  std::uint64_t rejected_ = 0;
};

}  // namespace capes::lustre
