#pragma once
// Monitoring Agent (§3.3): one per monitored node. At every sampling tick
// it collects the node's performance indicators through the adapter's
// collector function, encodes them with the differential protocol, and
// publishes the message onto the control network (a bus::Channel feeding
// the Interface Daemon's inbox). Depending on the transport behind the
// channel the message arrives the same tick (SyncTransport — identical
// to a direct call), some ticks late, or never.
//
// Drop handling and the differential codec: collection is local, so the
// agent samples its node every tick regardless. When the transport will
// drop this tick's send, the agent skips encoding — the encoder's state
// then still mirrors the last message that actually reached the wire, so
// the next successful send carries the accumulated delta and the
// daemon-side decoder never desynchronizes. The dropped tick is simply
// absent from the Replay DB, which is what its missing-entry tolerance
// (§3.5) exists to absorb.
//
// Under multi-cluster control the agent carries two node ids: the local
// node inside its own cluster (what the adapter's collector understands)
// and the global, domain-namespaced node id it stamps on the wire — also
// its sender id on the channel — so the sharded Interface Daemon can
// route the message.

#include <cstdint>
#include <vector>

#include "bus/channel.hpp"
#include "core/adapter.hpp"
#include "core/pi_codec.hpp"
#include "util/arena.hpp"

namespace capes::core {

/// The monitoring hop's channel: encoded PI messages, sender = global
/// node id. Unbounded — see the drop-handling note above; capacity drops
/// would desynchronize the differential codec, transport drops cannot.
using PiChannel = bus::Channel<std::vector<std::uint8_t>>;

class MonitoringAgent {
 public:
  /// Collect as `local_node`; publish onto `channel` as sender
  /// `global_node`. The channel must outlive the agent.
  MonitoringAgent(std::size_t local_node, std::size_t global_node,
                  TargetSystemAdapter& adapter, PiChannel& channel);

  /// Collect + encode + publish the PIs for sampling tick `t`. This is
  /// thread-safe for distinct nodes of one adapter
  /// (collectors touch per-node state only; the channel serializes
  /// internally and drain order is publish-order-independent), so the
  /// per-tick fan-out may run it from worker threads directly.
  void sample(std::int64_t t);

  /// The collect + encode half of sample(), without the send. Returns an
  /// empty message when the transport will drop this tick's send (the
  /// encode is skipped; see the header comment). Safe to run concurrently
  /// for distinct nodes of one adapter.
  std::vector<std::uint8_t> collect_and_encode(std::int64_t t);

  /// The send half: publish `msg` (encoded at tick `t`) onto the channel.
  /// An empty `msg` stands for "transport-dropped" and only bumps the
  /// channel's drop counter.
  void publish(std::int64_t t, std::vector<std::uint8_t> msg);

  /// Return a drained payload buffer to this agent's free list so the
  /// next encode reuses its capacity instead of allocating. The daemon's
  /// drain (serial, on the control thread) calls this; it never overlaps
  /// the sampling fan-out, so no lock is needed.
  void recycle_payload(std::vector<std::uint8_t>&& buf);

  std::size_t node() const { return encoder_.node(); }
  std::size_t local_node() const { return local_node_; }
  std::uint64_t bytes_sent() const { return encoder_.total_bytes(); }
  std::uint64_t messages_sent() const { return encoder_.messages(); }

 private:
  std::vector<std::uint8_t> acquire_payload();

  TargetSystemAdapter& adapter_;
  std::size_t local_node_;
  PiEncoder encoder_;
  PiChannel& channel_;
  /// Per-tick scratch for the collected PI vector; reset each sample().
  util::Arena arena_;
  /// Recycled encode buffers (see recycle_payload).
  std::vector<std::vector<std::uint8_t>> free_payloads_;
};

}  // namespace capes::core
