#include "lustre/ost.hpp"

#include <algorithm>

namespace capes::lustre {

namespace {

/// Adjust disk positioning costs for disk fullness (fuller platters mean
/// longer average seeks) — one of the Figure 4 session perturbations.
sim::DiskOptions adjusted_disk(const ClusterOptions& opts) {
  sim::DiskOptions d = opts.disk;
  const double factor = 1.0 + 0.3 * opts.disk_fullness;
  d.read_positioning_us =
      static_cast<sim::TimeUs>(static_cast<double>(d.read_positioning_us) * factor);
  d.write_positioning_us =
      static_cast<sim::TimeUs>(static_cast<double>(d.write_positioning_us) * factor);
  return d;
}

}  // namespace

Ost::Ost(sim::Simulator& sim, sim::Network& net, sim::NodeId node,
         const ClusterOptions& opts, util::Rng rng)
    : sim_(sim), net_(net), node_(node), opts_(opts), rng_(rng) {
  disk_ = std::make_unique<sim::Disk>(sim_, adjusted_disk(opts_), rng_.split());
}

void Ost::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down) {
    // Crash: queued work is lost. The in-flight disk/metadata service
    // event still fires (keeping the busy flags honest) but its reply is
    // suppressed by the send_reply gate below.
    rejected_ += metadata_queue_.size() + disk_->drop_pending();
    metadata_queue_.clear();
  }
}

void Ost::on_request(const RpcRequest& req) {
  if (down_) {
    // A dead server answers nothing; the client's RPC timeout will
    // retransmit until the restart lands.
    ++rejected_;
    return;
  }
  if (req.type == RpcType::kMetadata) {
    metadata_queue_.push_back(MetaPending{req, sim_.now()});
    metadata_dispatch();
    return;
  }
  sim::DiskRequest dr;
  dr.is_write = req.type == RpcType::kWrite;
  dr.object_id = req.object_id;
  dr.offset = req.offset;
  dr.bytes = req.bytes;
  // File-layout fragmentation (a Figure 4 session perturbation): a
  // fraction of chunks live at scattered physical locations, which breaks
  // sequential detection and forces a positioning cost.
  if (opts_.fragmentation > 0.0 && rng_.chance(opts_.fragmentation)) {
    dr.object_id = ~dr.object_id;
    dr.offset = rng_.next_u64() % (1ull << 40);
  }
  dr.done = [this, req](sim::TimeUs process_time) {
    send_reply(req, process_time);
  };
  disk_->enqueue(std::move(dr));
}

void Ost::metadata_dispatch() {
  if (metadata_busy_ || metadata_queue_.empty()) return;
  metadata_busy_ = true;
  metadata_in_service_ = metadata_queue_.front();
  metadata_queue_.pop_front();
  double service = static_cast<double>(opts_.metadata_service_us);
  service *= 1.0 + rng_.uniform(-opts_.metadata_noise, opts_.metadata_noise);
  sim_.schedule_in(std::max<sim::TimeUs>(1, static_cast<sim::TimeUs>(service)),
                   [this] {
                     metadata_busy_ = false;
                     ++metadata_served_;
                     const MetaPending& p = metadata_in_service_;
                     send_reply(p.req, sim_.now() - p.enqueue_time);
                     metadata_dispatch();
                   });
}

void Ost::send_reply(const RpcRequest& req, sim::TimeUs process_time) {
  if (down_) {
    // In-flight work finishing during an outage: the result is lost with
    // the server, so the client sees a gap, not a reply.
    ++rejected_;
    return;
  }
  ++served_;
  RpcReply reply;
  reply.id = req.id;
  reply.type = req.type;
  reply.bytes = req.type == RpcType::kRead ? req.bytes : 0;
  reply.process_time = process_time;
  const std::uint64_t wire_bytes = opts_.reply_bytes + reply.bytes;
  // Delivery is routed back through the cluster's dispatch table; the
  // cluster wires this callback at construction time.
  if (deliver_reply_) {
    const std::size_t client = req.client;
    net_.send(node_, client, wire_bytes,
              [this, client, reply] { deliver_reply_(client, reply); });
  }
}

}  // namespace capes::lustre
