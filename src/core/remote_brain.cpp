#include "core/remote_brain.hpp"

#include <cstdio>

#include "capture/wire_log_writer.hpp"
#include "core/interface_daemon.hpp"
#include "net/socket.hpp"
#include "util/frame.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace capes::core {

std::vector<std::uint8_t> encode_hello(const HelloPayload& hello) {
  util::BinaryWriter w;
  w.put_u32(kWireProtoVersion);
  const std::vector<std::uint8_t> meta = hello.meta.encode();
  w.put_u32(static_cast<std::uint32_t>(meta.size()));
  w.put_raw(meta.data(), meta.size());
  w.put_u32(static_cast<std::uint32_t>(hello.domains.size()));
  for (const RemoteDomain& d : hello.domains) {
    w.put_u64(d.action_offset);
    w.put_u32(static_cast<std::uint32_t>(d.params.size()));
    for (const rl::TunableParameter& p : d.params) {
      w.put_string(p.name);
      w.put_f64(p.min_value);
      w.put_f64(p.max_value);
      w.put_f64(p.step);
      w.put_f64(p.initial_value);
    }
  }
  return w.take();
}

std::optional<HelloPayload> decode_hello(const std::vector<std::uint8_t>& blob) {
  util::BinaryReader r(blob);
  const auto version = r.get_u32();
  if (!version || *version != kWireProtoVersion) return std::nullopt;
  const auto meta_len = r.get_u32();
  if (!meta_len || *meta_len > r.remaining()) return std::nullopt;
  std::vector<std::uint8_t> meta_blob(*meta_len);
  if (!r.get_raw(meta_blob.data(), meta_blob.size())) return std::nullopt;
  const auto meta = capture::TraceMeta::decode(meta_blob);
  if (!meta) return std::nullopt;
  HelloPayload hello;
  hello.meta = *meta;
  // No count may promise more than the bytes left can hold: a domain is at
  // least 12 bytes (offset, count), a parameter 36 (name length, 4 f64s).
  const auto num_domains = r.get_u32();
  if (!num_domains || *num_domains == 0 || *num_domains > r.remaining() / 12) {
    return std::nullopt;
  }
  hello.domains.reserve(*num_domains);
  for (std::uint32_t d = 0; d < *num_domains; ++d) {
    RemoteDomain domain;
    const auto offset = r.get_u64();
    const auto num_params = r.get_u32();
    if (!offset || !num_params || *num_params > r.remaining() / 36) {
      return std::nullopt;
    }
    domain.action_offset = *offset;
    domain.params.reserve(*num_params);
    for (std::uint32_t p = 0; p < *num_params; ++p) {
      rl::TunableParameter param;
      auto name = r.get_string();
      const auto min_value = r.get_f64();
      const auto max_value = r.get_f64();
      const auto step = r.get_f64();
      const auto initial = r.get_f64();
      if (!name || !min_value || !max_value || !step || !initial) {
        return std::nullopt;
      }
      param.name = std::move(*name);
      param.min_value = *min_value;
      param.max_value = *max_value;
      param.step = *step;
      param.initial_value = *initial;
      domain.params.push_back(std::move(param));
    }
    hello.domains.push_back(std::move(domain));
  }
  return hello;
}

BrainClient::BrainClient(bus::Transport& transport, bus::TransportOptions opts,
                         net::EndpointOptions endpoint_opts)
    : opts_(std::move(opts)),
      endpoint_opts_(endpoint_opts),
      // Unbounded like the daemon's inbox: capacity drops would
      // desynchronize the differential PI codec. The tcp shed point is
      // the endpoint's outbound ring, where absolute framing and the
      // replay DB's missing-entry tolerance absorb the loss.
      inbox_(transport, kStatusTopic) {}

BrainClient::~BrainClient() { bye(0); }

bool BrainClient::connect(
    const capture::TraceMeta& meta,
    const std::vector<std::unique_ptr<ControlDomain>>& domains,
    std::string* error) {
  HelloPayload hello;
  hello.meta = meta;
  for (const auto& domain : domains) {
    domains_.push_back(domain.get());
    slice_offsets_.push_back(domain->action_offset());
    hello.domains.push_back(
        {domain->action_offset(), domain->space().parameters()});
  }
  std::string sock_error;
  const int fd =
      net::tcp_connect(opts_.tcp_host, static_cast<std::uint16_t>(opts_.tcp_port),
                       opts_.connect_timeout_ms, &sock_error);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot reach capes_daemond at " + opts_.tcp_host + ":" +
               std::to_string(opts_.tcp_port) + ": " + sock_error;
    }
    return false;
  }
  endpoint_ = std::make_unique<net::Endpoint>(fd, endpoint_opts_);

  const std::vector<std::uint8_t> blob = encode_hello(hello);
  if (!endpoint_->send(kFrameHello, 0, 0, 0, blob.data(), blob.size())) {
    if (error != nullptr) *error = "handshake send failed (link dead)";
    return false;
  }
  for (;;) {
    net::InSlot* slot = endpoint_->recv();
    if (slot == nullptr) {
      if (error != nullptr) {
        *error = "capes_daemond closed the connection during the handshake "
                 "(protocol-version mismatch or rejected Hello?)";
      }
      return false;
    }
    const net::Frame& f = slot->frame;
    if (f.type != kFrameHelloAck) {
      endpoint_->recycle(slot);
      continue;  // tolerate strays; the ack is next
    }
    if (f.payload.size() < 8 ||
        util::get_le32(f.payload.data()) != kWireProtoVersion) {
      endpoint_->recycle(slot);
      if (error != nullptr) {
        *error = "capes_daemond speaks a different protocol version";
      }
      return false;
    }
    fingerprint_ = util::get_le32(f.payload.data() + 4);
    endpoint_->recycle(slot);
    return true;
  }
}

void BrainClient::set_payload_recycler(PayloadRecycler recycler) {
  payload_recycler_ = std::move(recycler);
}

bool BrainClient::send_frame(std::uint8_t type, std::int64_t tick,
                             std::uint64_t topic, std::uint64_t sender,
                             const std::uint8_t* payload,
                             std::size_t payload_size) {
  if (endpoint_ == nullptr) {
    ++dropped_;
    return false;
  }
  return endpoint_->send(type, tick, topic, sender, payload, payload_size);
}

std::size_t BrainClient::flush_status(std::int64_t t) {
  return inbox_.drain(t, [this, t](bus::Message<std::vector<std::uint8_t>>& msg) {
    // Capture before the send, mirroring the daemon's drain: the record
    // carries the raw wire bytes under the same topic/sender/tick.
    if (capture_ != nullptr) {
      capture_->record(capture::RecordType::kStatus, t, kStatusTopic,
                       msg.sender, msg.payload.data(), msg.payload.size());
    }
    send_frame(frame_type(capture::RecordType::kStatus), t, kStatusTopic,
               msg.sender, msg.payload.data(), msg.payload.size());
    if (payload_recycler_) {
      payload_recycler_(msg.sender, std::move(msg.payload));
    }
  });
}

void BrainClient::send_reward(std::int64_t t, double reward,
                              double throughput_sum, double latency_mean) {
  std::uint8_t payload[24];
  util::put_le_f64(payload, reward);
  util::put_le_f64(payload + 8, throughput_sum);
  util::put_le_f64(payload + 16, latency_mean);
  send_frame(frame_type(capture::RecordType::kReward), t, 0, 0, payload,
             sizeof(payload));
}

void BrainClient::stash_broadcast(const net::Frame& frame) {
  const std::size_t domain =
      frame.topic >= kActionTopicBase
          ? static_cast<std::size_t>(frame.topic - kActionTopicBase)
          : domains_.size();
  // A garbled topic or a payload that is not exactly the domain's
  // parameter vector never reaches the target system's setters.
  if (domain >= domains_.size() ||
      frame.payload.size() != 8 * domains_[domain]->num_parameters()) {
    ++dropped_;
    return;
  }
  if (stash_count_ == stash_.size()) stash_.emplace_back();
  PendingBroadcast& pending = stash_[stash_count_++];
  pending.domain = domain;
  const std::size_t n = frame.payload.size() / 8;
  pending.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pending.values[i] = util::get_le_f64(frame.payload.data() + 8 * i);
  }
}

void BrainClient::apply_broadcasts(std::int64_t t) {
  for (std::size_t i = 0; i < stash_count_; ++i) {
    PendingBroadcast& pending = stash_[i];
    ControlDomain* domain = domains_[pending.domain];
    if (capture_ != nullptr) {
      capture_->record_f64s(capture::RecordType::kBroadcast, t,
                            kActionTopicBase + domain->index(),
                            domain->index(), pending.values.data(),
                            pending.values.size());
    }
    domain->param_values().assign(pending.values.begin(),
                                  pending.values.end());
    domain->deliver_parameters(domain->param_values());
  }
  stash_count_ = 0;
}

TickOutcome BrainClient::end_tick(std::int64_t t, RunPhase mode) {
  TickOutcome out;
  const auto mode_byte = static_cast<std::uint8_t>(mode);
  send_frame(kFrameTickDone, t, 0, 0, &mode_byte, 1);
  if (endpoint_ == nullptr) return out;
  stash_count_ = 0;
  for (;;) {
    net::InSlot* slot = endpoint_->recv();
    if (slot == nullptr) {
      // The daemon vanished mid-tick: finish the tick with no action and
      // surface the loss through stats().dropped — never hang the loop.
      stash_count_ = 0;
      ++dropped_;
      return out;
    }
    const net::Frame& f = slot->frame;
    if (f.type == frame_type(capture::RecordType::kBroadcast)) {
      stash_broadcast(f);
      endpoint_->recycle(slot);
      continue;
    }
    if (f.type == kFrameActionsDone && f.payload.size() >= 20) {
      out.suggested = util::get_le32(f.payload.data());
      out.recorded = util::get_le32(f.payload.data() + 4);
      out.train_steps = util::get_le32(f.payload.data() + 8);
      out.total_train_steps =
          static_cast<std::size_t>(util::get_le64(f.payload.data() + 12));
      endpoint_->recycle(slot);
      break;
    }
    endpoint_->recycle(slot);  // stray: ignore
  }
  total_train_steps_ = out.total_train_steps;
  if (capture_ != nullptr) {
    // Mirror the daemon's kAction record: the suggestion's slice owns it.
    const std::size_t shard = action_slice(out.suggested, slice_offsets_);
    std::uint8_t payload[8];
    util::put_le32(payload, static_cast<std::uint32_t>(out.suggested));
    util::put_le32(payload + 4, static_cast<std::uint32_t>(out.recorded));
    capture_->record(capture::RecordType::kAction, t,
                     kActionTopicBase + domains_[shard]->index(), shard,
                     payload, sizeof(payload));
  }
  apply_broadcasts(t);
  return out;
}

void BrainClient::begin_phase(std::int64_t t, RunPhase phase) {
  const auto phase_byte = static_cast<std::uint8_t>(phase);
  send_frame(frame_type(capture::RecordType::kPhaseBegin), t, 0, 0,
             &phase_byte, 1);
}

bool BrainClient::end_phase(std::int64_t t, RunPhase phase) {
  const auto phase_byte = static_cast<std::uint8_t>(phase);
  send_frame(frame_type(capture::RecordType::kPhaseEnd), t, 0, 0, &phase_byte,
             1);
  if (endpoint_ == nullptr) return false;
  for (;;) {
    net::InSlot* slot = endpoint_->recv();
    if (slot == nullptr) return false;
    const net::Frame& f = slot->frame;
    if (f.type == kFramePhaseEndAck && f.payload.size() >= 12) {
      fingerprint_ = util::get_le32(f.payload.data());
      total_train_steps_ =
          static_cast<std::size_t>(util::get_le64(f.payload.data() + 4));
      endpoint_->recycle(slot);
      return true;
    }
    endpoint_->recycle(slot);
  }
}

void BrainClient::reset_params(std::int64_t t) {
  send_frame(kFrameParamsReset, t, 0, 0, nullptr, 0);
}

void BrainClient::workload_change(std::int64_t t) {
  send_frame(frame_type(capture::RecordType::kWorkloadChange), t, 0, 0,
             nullptr, 0);
}

bool BrainClient::save_model(const std::string&) const {
  CAPES_LOG_WARN("capes") << "save_model: the model lives in capes_daemond";
  return false;
}

bool BrainClient::load_model(const std::string&) {
  CAPES_LOG_WARN("capes") << "load_model: the model lives in capes_daemond";
  return false;
}

void BrainClient::bye(std::int64_t t) {
  if (endpoint_ == nullptr) return;
  send_frame(kFrameBye, t, 0, 0, nullptr, 0);
  endpoint_->close();  // lingers briefly so the Bye flushes
}

bus::ChannelStats BrainClient::stats() const {
  bus::ChannelStats stats = inbox_.stats();
  if (endpoint_ != nullptr) stats.dropped += endpoint_->send_dropped();
  stats.dropped += dropped_;
  return stats;
}

}  // namespace capes::core
