#include "core/interface_daemon.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "capture/wire_log_writer.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace capes::core {

std::size_t action_slice(std::size_t action,
                         const std::vector<std::size_t>& slice_offsets) {
  const auto it =
      std::upper_bound(slice_offsets.begin(), slice_offsets.end(), action);
  return it == slice_offsets.begin()
             ? 0
             : static_cast<std::size_t>(it - slice_offsets.begin()) - 1;
}

InterfaceDaemon::InterfaceDaemon(rl::ReplayDb& replay,
                                 std::vector<DaemonShard> shards,
                                 std::size_t num_nodes,
                                 std::size_t pis_per_node,
                                 bus::Transport* transport)
    : replay_(replay), decoders_(num_nodes, PiDecoder(pis_per_node)) {
  if (transport != nullptr) {
    inbox_ = std::make_unique<PiChannel>(*transport, kStatusTopic);
  }
  for (const DaemonShard& slice : shards) add_shard(slice, transport);
}

void InterfaceDaemon::add_shard(const DaemonShard& slice,
                                bus::Transport* transport) {
  Shard shard;
  shard.slice = slice;
  shard.checker = std::make_unique<ActionChecker>(*slice.space);
  if (transport != nullptr) {
    shard.actions = std::make_unique<ActionChannel>(
        *transport, kActionTopicBase + shards_.size(), kActionChannelCapacity);
  }
  shards_.push_back(std::move(shard));
  slice_offsets_.push_back(slice.action_offset);
}

std::size_t InterfaceDaemon::check_shard(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("InterfaceDaemon: shard " + std::to_string(shard) +
                            " out of range (daemon has " +
                            std::to_string(shards_.size()) + " shard" +
                            (shards_.size() == 1 ? "" : "s") + ")");
  }
  return shard;
}

void InterfaceDaemon::on_status_message(const std::vector<std::uint8_t>& msg) {
  ++status_messages_;
  // Peek the global node id (first varint) to pick the right stateful
  // decoder; messages for nodes outside every shard count as errors.
  util::VarintReader peek(msg);
  auto node = peek.read_varint();
  if (!node || *node >= decoders_.size()) {
    ++decode_errors_;
    return;
  }
  if (!decoders_[*node].decode_into(msg, decode_scratch_)) {
    ++decode_errors_;
    CAPES_LOG_WARN("intfd") << "malformed PI message from node " << *node;
    return;
  }
  replay_.record_status(decode_scratch_.tick, decode_scratch_.node,
                        decode_scratch_.pis);
}

void InterfaceDaemon::on_reward(std::int64_t t, double reward) {
  replay_.record_reward(t, reward);
}

std::size_t InterfaceDaemon::drain_status(std::int64_t t,
                                          util::ThreadPool* pool) {
  if (!inbox_) return 0;
  if (pool == nullptr) {
    return inbox_->drain(
        t, [this, t](bus::Message<std::vector<std::uint8_t>>& msg) {
          // Capture the raw wire bytes exactly as delivered, before the
          // stateful decoder consumes them — replay re-feeds the same bytes
          // to fresh decoders in the same order.
          if (capture_ != nullptr) {
            capture_->record(capture::RecordType::kStatus, t, kStatusTopic,
                             msg.sender, msg.payload.data(),
                             msg.payload.size());
          }
          on_status_message(msg.payload);
          if (payload_recycler_) {
            payload_recycler_(msg.sender, std::move(msg.payload));
          }
        });
  }
  // Pooled drain: a serial pre-pass in delivery order (capture + node
  // routing + per-node grouping), a parallel decode keyed by node — each
  // worker owns one node's stateful decoder and that node's messages in
  // order, writing disjoint result slots — then a serial commit pass
  // reproducing the serial path's replay writes, counters, warnings, and
  // payload recycling, in the same delivery order.
  return inbox_->drain_batch(
      t, [this, t, pool](std::vector<bus::Message<std::vector<std::uint8_t>>>& due) {
        if (batch_decoded_.size() < due.size()) batch_decoded_.resize(due.size());
        batch_outcome_.assign(due.size(), kDecodeBadNode);
        batch_node_.assign(due.size(), 0);
        if (node_batch_index_.size() < decoders_.size()) {
          node_batch_index_.resize(decoders_.size());
        }
        touched_nodes_.clear();
        for (std::size_t i = 0; i < due.size(); ++i) {
          bus::Message<std::vector<std::uint8_t>>& msg = due[i];
          ++status_messages_;
          if (capture_ != nullptr) {
            capture_->record(capture::RecordType::kStatus, t, kStatusTopic,
                             msg.sender, msg.payload.data(),
                             msg.payload.size());
          }
          util::VarintReader peek(msg.payload);
          const auto node = peek.read_varint();
          if (!node || *node >= decoders_.size()) continue;  // kDecodeBadNode
          batch_node_[i] = *node;
          if (node_batch_index_[*node].empty()) {
            touched_nodes_.push_back(static_cast<std::uint32_t>(*node));
          }
          node_batch_index_[*node].push_back(static_cast<std::uint32_t>(i));
        }
        pool->parallel_for(touched_nodes_.size(), [&](std::size_t k) {
          const std::uint32_t node = touched_nodes_[k];
          for (const std::uint32_t i : node_batch_index_[node]) {
            batch_outcome_[i] =
                decoders_[node].decode_into(due[i].payload, batch_decoded_[i])
                    ? kDecodeOk
                    : kDecodeBadMsg;
          }
        });
        for (std::size_t i = 0; i < due.size(); ++i) {
          if (batch_outcome_[i] == kDecodeOk) {
            replay_.record_status(batch_decoded_[i].tick, batch_decoded_[i].node,
                                  batch_decoded_[i].pis);
          } else {
            ++decode_errors_;
            if (batch_outcome_[i] == kDecodeBadMsg) {
              CAPES_LOG_WARN("intfd")
                  << "malformed PI message from node " << batch_node_[i];
            }
          }
          if (payload_recycler_) {
            payload_recycler_(due[i].sender, std::move(due[i].payload));
          }
        }
        for (const std::uint32_t node : touched_nodes_) {
          node_batch_index_[node].clear();
        }
      });
}

void InterfaceDaemon::set_payload_recycler(PayloadRecycler recycler) {
  payload_recycler_ = std::move(recycler);
}

std::size_t InterfaceDaemon::drain_actions(std::int64_t t) {
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    if (!shard.actions) continue;
    delivered += shard.actions->drain(
        t, [this, t, i, &shard](bus::Message<std::vector<double>>& msg) {
          if (capture_ != nullptr) {
            capture_->record_f64s(capture::RecordType::kBroadcast, t,
                                  kActionTopicBase + i, msg.sender,
                                  msg.payload.data(), msg.payload.size());
          }
          deliver(shard, msg.payload);
          // Recycle the broadcast buffer for the next publish.
          if (shard.action_pool.size() < 4) {
            shard.action_pool.push_back(std::move(msg.payload));
          }
        });
  }
  return delivered;
}

bus::ChannelStats InterfaceDaemon::bus_stats() const {
  bus::ChannelStats stats;
  if (inbox_) stats += inbox_->stats();
  for (const Shard& shard : shards_) {
    if (shard.actions) stats += shard.actions->stats();
  }
  return stats;
}

void InterfaceDaemon::deliver(Shard& shard, const std::vector<double>& values) {
  for (ControlAgent* agent : shard.control_agents) {
    agent->on_action_message(values);
  }
  if (shard.slice.domain != nullptr) {
    shard.slice.domain->deliver_parameters(values);
  }
}

std::size_t InterfaceDaemon::apply_checked_action(std::int64_t t,
                                                  std::size_t shard_index,
                                                  std::size_t local_action,
                                                  std::size_t global_action) {
  Shard& shard = shards_[shard_index];
  std::vector<double>& parameter_values = *shard.slice.params;
  const rl::DecodedAction decoded = shard.slice.space->decode(local_action);
  std::size_t recorded = global_action;
  if (!shard.checker->check(decoded, parameter_values)) {
    recorded = 0;  // vetoed -> NULL action
  } else if (!decoded.null_action) {
    shard.slice.space->apply(decoded, parameter_values);
    if (shard.actions) {
      // Control-network broadcast: the daemon's view of the parameters
      // updates now; the target system applies them when the message
      // lands (possibly ticks later, possibly never if dropped — the
      // next delivered broadcast carries absolute values and heals it).
      // The copy goes into a recycled buffer so steady-state broadcasts
      // do not allocate.
      std::vector<double> payload;
      if (!shard.action_pool.empty()) {
        payload = std::move(shard.action_pool.back());
        shard.action_pool.pop_back();
      }
      payload.assign(parameter_values.begin(), parameter_values.end());
      shard.actions->publish(shard_index, t, std::move(payload));
    } else {
      deliver(shard, parameter_values);
    }
    ++actions_broadcast_;
  }
  replay_.record_action(t, recorded);
  if (capture_ != nullptr) {
    // Both the engine's suggestion and the post-veto outcome, so replay
    // can detect divergence and diff tools can report veto behavior.
    std::uint8_t payload[8];
    for (int i = 0; i < 4; ++i) {
      payload[i] = static_cast<std::uint8_t>(global_action >> (8 * i));
      payload[4 + i] = static_cast<std::uint8_t>(recorded >> (8 * i));
    }
    capture_->record(capture::RecordType::kAction, t,
                     kActionTopicBase + shard_index, shard_index, payload,
                     sizeof(payload));
  }
  return recorded;
}

std::size_t InterfaceDaemon::route_suggested_action(std::int64_t t,
                                                    std::size_t action_index) {
  // The NULL action belongs to no slice; it goes to shard 0 so checker
  // rules still see it (the recorded action is 0 either way).
  assert(!shards_.empty());
  const std::size_t shard = shard_of(action_index);
  const std::size_t local =
      action_index == 0 ? 0 : action_index - slice_offsets_[shard] + 1;
  assert(local < shards_[shard].slice.space->num_actions());
  return apply_checked_action(t, shard, local, action_index);
}

void InterfaceDaemon::reset_parameters() {
  for (Shard& shard : shards_) {
    *shard.slice.params = shard.slice.space->initial_values();
  }
}

void InterfaceDaemon::register_control_agent(std::size_t shard,
                                             ControlAgent* agent) {
  shards_[check_shard(shard)].control_agents.push_back(agent);
}

}  // namespace capes::core
