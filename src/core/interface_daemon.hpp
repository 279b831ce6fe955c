#pragma once
// Interface Daemon (§3.3): the hub between Monitoring Agents, the Replay
// DB, the DRL Engine and the Control Agents. It is the only component
// that writes to the Replay DB; it decodes incoming PI messages, stores
// them, relays rewards, and broadcasts checked actions.
//
// The daemon is a sharded fan-in: one shard per slice of the composite
// action namespace. Incoming PI messages carry global (domain-namespaced)
// node ids and route to that node's stateful decoder; a suggested
// composite action index routes to the shard whose slice contains it
// (action_slice), is validated by that shard's Action Checker, and — when
// it passes — is applied to that shard's parameter vector and broadcast
// to its Control Agents only. A shard needs no ControlDomain: a learner
// box checks against parameter mirrors. A daemon with no shards is
// ingest-only (status decoding and replay writes).
//
// Control-network mode: constructed with a bus::Transport, the daemon
// owns its PI inbox channel (which Monitoring Agents publish into) and
// one action channel per shard (which checked actions are broadcast
// through). The tick loop drains both once per sampling tick: whatever
// has arrived is written / applied, late messages surface on the tick
// they arrive, dropped ones never do — the Replay DB's missing-entry
// tolerance absorbs the gaps. Without a transport the daemon keeps the
// original direct-call behavior (agent-level tests, hop-free wiring).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bus/channel.hpp"
#include "core/action_checker.hpp"
#include "core/control_agent.hpp"
#include "core/control_domain.hpp"
#include "core/monitoring_agent.hpp"
#include "core/pi_codec.hpp"
#include "rl/action_space.hpp"
#include "rl/replay_db.hpp"

namespace capes::capture {
class WireLogWriter;
}  // namespace capes::capture

namespace capes::util {
class ThreadPool;
}  // namespace capes::util

namespace capes::core {

/// The action hop's channel: absolute parameter vectors, sender = shard.
/// Absolute payloads make action drops self-healing (the next delivered
/// broadcast carries the full state), so a bounded queue is safe here.
using ActionChannel = bus::Channel<std::vector<double>>;

/// Channel topics: one inbox for all PI traffic, one action topic per
/// shard. Topic ids feed the per-message fate hash, so distinct topics
/// see independent network realizations. Public because the distributed
/// control plane (remote_brain / brain_service) puts the same topic ids
/// on the tcp wire, keeping captures from distributed runs replayable.
inline constexpr std::uint64_t kStatusTopic = 1;
inline constexpr std::uint64_t kActionTopicBase = 2;

/// Bounded action queues: one publish per tick and a per-tick drain keep
/// the in-flight count near the transport delay, so this bound only
/// guards against a pathological transport configuration.
inline constexpr std::size_t kActionChannelCapacity = 1024;

/// One slice of the composite action namespace; pointees must outlive
/// the daemon.
struct DaemonShard {
  const rl::ActionSpace* space = nullptr;  ///< the slice's local actions
  std::size_t action_offset = 1;           ///< global index of local action 1
  std::vector<double>* params = nullptr;   ///< checked against, applied to
  /// The owning domain, where one exists: applying parameters binds its
  /// simulator shard and reaches its Control Agents.
  ControlDomain* domain = nullptr;
};

/// `domain`'s slice: its space, offset and live parameter vector.
inline DaemonShard domain_shard(ControlDomain& domain) {
  return {&domain.space(), domain.action_offset(), &domain.param_values(),
          &domain};
}

/// The slice owning composite action `action`: the last whose start
/// offset is at or below it (NULL, 0, belongs to slice 0). The one
/// composite-to-slice mapping: the daemon routes by it, BrainClient
/// captures by it.
std::size_t action_slice(std::size_t action,
                         const std::vector<std::size_t>& slice_offsets);

class InterfaceDaemon {
 public:
  /// One shard per slice, in slice order (none = ingest-only), and one PI
  /// decoder per global node. A non-null `transport` (which must outlive
  /// the daemon) puts the PI inbox and the per-shard action broadcasts on
  /// the control network.
  InterfaceDaemon(rl::ReplayDb& replay, std::vector<DaemonShard> shards,
                  std::size_t num_nodes, std::size_t pis_per_node,
                  bus::Transport* transport = nullptr);

  /// Incoming PI message from a Monitoring Agent; the leading global node
  /// id picks the shard decoder, and the decoded PIs are written to the
  /// replay DB under that global node id.
  void on_status_message(const std::vector<std::uint8_t>& msg);

  /// Record the objective-function output for tick t.
  void on_reward(std::int64_t t, double reward);

  /// Route the composite `action_index` suggested for tick t to its
  /// owning shard and apply it to that shard's parameter vector. Runs the
  /// shard's action checker; if it passes, broadcasts the resulting
  /// parameter values to the shard's Control Agents. Returns the action
  /// recorded (a veto degrades to the NULL action — the system did
  /// nothing that tick). In control-network mode the parameter vector
  /// updates immediately (the daemon's view) but the broadcast rides the
  /// shard's action channel — a delayed action reaches the target system
  /// on a later tick, exactly as in a real deployment.
  std::size_t route_suggested_action(std::int64_t t, std::size_t action_index);

  /// The shard owning composite action `action_index`.
  std::size_t shard_of(std::size_t action_index) const {
    return action_slice(action_index, slice_offsets_);
  }

  /// Reset every shard's parameter vector to its space's initial values.
  void reset_parameters();

  // ---- control network -----------------------------------------------------
  /// The PI inbox Monitoring Agents publish into (null without a
  /// transport).
  PiChannel* inbox() { return inbox_.get(); }

  /// Write every PI message that has arrived by tick `t` to the Replay
  /// DB. No-op without a transport. Returns messages delivered. With a
  /// pool, decoding fans out one worker per sender node — a node's
  /// messages stay with its stateful decoder in arrival order — and the
  /// replay-DB writes, error counters, and payload recycling then run
  /// serially in delivery order, so the pooled drain is bit-identical to
  /// the serial one. At 64/128 domains the single-threaded decode was
  /// the dominant serial cost at the sampling-tick barrier.
  std::size_t drain_status(std::int64_t t, util::ThreadPool* pool = nullptr);

  /// Optional hook: after a PI message is consumed by drain_status, its
  /// payload buffer is handed here (keyed by the sender's global node id)
  /// so the owning Monitoring Agent can reuse the capacity — the last
  /// link in the allocation-free status round trip. Runs on the drain
  /// (control) thread.
  using PayloadRecycler =
      std::function<void(std::uint64_t sender, std::vector<std::uint8_t>&& payload)>;
  void set_payload_recycler(PayloadRecycler recycler);

  /// Deliver every checked action broadcast due by tick `t` to its
  /// shard's Control Agents. No-op without a transport. Returns messages
  /// delivered.
  std::size_t drain_actions(std::int64_t t);

  /// Combined control-network counters (PI inbox + all action channels).
  /// All-zero without a transport.
  bus::ChannelStats bus_stats() const;

  /// Extra Control Agents for a shard, beyond its domain's own.
  void register_control_agent(std::size_t shard, ControlAgent* agent);
  ActionChecker& action_checker(std::size_t shard) {
    return *shards_[check_shard(shard)].checker;
  }
  std::size_t num_shards() const { return shards_.size(); }

  std::uint64_t status_messages() const { return status_messages_; }
  std::uint64_t decode_errors() const { return decode_errors_; }
  std::uint64_t actions_broadcast() const { return actions_broadcast_; }

  /// Flight recorder (nullable; must outlive the daemon while set). All
  /// three daemon-boundary hops — PI status, suggested/recorded actions,
  /// checked-action broadcasts — are written through it. Every capture
  /// point runs on the control thread, matching the writer's
  /// single-producer contract.
  void set_capture(capture::WireLogWriter* writer) { capture_ = writer; }

 private:
  struct Shard {
    DaemonShard slice;
    std::unique_ptr<ActionChecker> checker;
    std::vector<ControlAgent*> control_agents;
    /// Control-network broadcast channel (null = direct calls).
    std::unique_ptr<ActionChannel> actions;
    /// Recycled action-broadcast payloads: publish pops one (capacity
    /// reused for the parameter copy), drain_actions pushes the drained
    /// buffer back. Both run on the control thread.
    std::vector<std::vector<double>> action_pool;
  };

  void add_shard(const DaemonShard& slice, bus::Transport* transport);

  /// Validated shard index; throws std::out_of_range (with the shard
  /// count in the message) on a bad one — indexing another domain's
  /// checker or agent list would silently corrupt cross-domain state.
  std::size_t check_shard(std::size_t shard) const;

  /// Apply `values` through the shard's Control Agents: the registered
  /// ones, then the domain's.
  static void deliver(Shard& shard, const std::vector<double>& values);

  std::size_t apply_checked_action(std::int64_t t, std::size_t shard_index,
                                   std::size_t local_action,
                                   std::size_t global_action);

  rl::ReplayDb& replay_;
  std::vector<Shard> shards_;
  std::vector<std::size_t> slice_offsets_;  ///< shards_[i].slice.action_offset
  std::vector<PiDecoder> decoders_;  // one per global node
  std::unique_ptr<PiChannel> inbox_;
  PayloadRecycler payload_recycler_;
  PiMessage decode_scratch_;  ///< reused across on_status_message calls
  capture::WireLogWriter* capture_ = nullptr;

  /// Pooled-drain scratch (drain_status with a pool): one decode result
  /// + outcome slot per due message (workers write disjoint slots), and
  /// per-node message-index runs so exactly one worker owns each node's
  /// stateful decoder. All vectors grow once and are reused, keeping the
  /// steady-state drain allocation-free like the serial path.
  enum : std::uint8_t { kDecodeBadNode = 0, kDecodeBadMsg = 1, kDecodeOk = 2 };
  std::vector<PiMessage> batch_decoded_;
  std::vector<std::uint8_t> batch_outcome_;
  std::vector<std::uint64_t> batch_node_;
  std::vector<std::vector<std::uint32_t>> node_batch_index_;
  std::vector<std::uint32_t> touched_nodes_;

  std::uint64_t status_messages_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t actions_broadcast_ = 0;
};

}  // namespace capes::core
