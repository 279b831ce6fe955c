#include "sim/disk.hpp"

#include <algorithm>
#include <cmath>

namespace capes::sim {

Disk::Disk(Simulator& sim, DiskOptions opts, util::Rng rng)
    : sim_(sim), opts_(opts), rng_(rng) {}

void Disk::enqueue(DiskRequest req) {
  auto& q = req.is_write ? write_queue_ : read_queue_;
  q.push_back(Pending{std::move(req), sim_.now()});
  maybe_dispatch();
}

TimeUs Disk::service_time(const DiskRequest& req) {
  const bool sequential =
      req.object_id == last_object_ && req.offset >= last_end_offset_ &&
      req.offset - last_end_offset_ <= opts_.sequential_gap;

  double positioning = 0.0;
  if (!sequential) {
    if (req.is_write) {
      // Deep write queues let the drive/IO-scheduler merge and reorder
      // aggressively; effective positioning cost drops accordingly.
      const double depth = static_cast<double>(queued_writes() + 1);
      const double factor = 1.0 + opts_.write_queue_gain *
                                      (1.0 - std::exp(-depth / opts_.write_queue_scale));
      positioning = static_cast<double>(opts_.write_positioning_us) / factor;
    } else {
      const double depth = static_cast<double>(queued_reads() + 1);
      const double factor = 1.0 + opts_.read_queue_gain *
                                      (1.0 - std::exp(-depth / opts_.read_queue_scale));
      positioning = static_cast<double>(opts_.read_positioning_us) / factor;
    }
  }

  const double bw = req.is_write ? opts_.seq_write_mbs : opts_.seq_read_mbs;
  const double transfer = static_cast<double>(req.bytes) / (bw * 1e6) * 1e6;

  double total = positioning + transfer;
  if (opts_.service_noise > 0.0) {
    total *= 1.0 + rng_.uniform(-opts_.service_noise, opts_.service_noise);
  }
  // Straggler fault: the multiplier sits outside the noise draw, so the
  // rng_ stream advances identically whether or not a fault plan is
  // active (faults off stays bit-identical).
  if (slow_factor_ != 1.0) total *= slow_factor_;
  return std::max<TimeUs>(1, static_cast<TimeUs>(total));
}

std::size_t Disk::drop_pending() {
  const std::size_t dropped = read_queue_.size() + write_queue_.size();
  read_queue_.clear();
  write_queue_.clear();
  consecutive_reads_ = 0;
  return dropped;
}

void Disk::maybe_dispatch() {
  if (busy_ || (read_queue_.empty() && write_queue_.empty())) return;
  busy_ = true;
  // Read-preferring dispatch with a starvation bound.
  const bool take_read =
      !read_queue_.empty() &&
      (write_queue_.empty() || consecutive_reads_ < opts_.max_consecutive_reads);
  consecutive_reads_ = take_read ? consecutive_reads_ + 1 : 0;
  auto& q = take_read ? read_queue_ : write_queue_;
  in_service_ = std::move(q.front());
  q.pop_front();

  const TimeUs service = service_time(in_service_.req);
  last_object_ = in_service_.req.object_id;
  last_end_offset_ = in_service_.req.offset + in_service_.req.bytes;
  sim_.schedule_in(service, [this, service] { complete(service); });
}

void Disk::complete(TimeUs service) {
  // Taken out first: the completion callback may enqueue, and so
  // dispatch, the next request.
  const Pending p = std::move(in_service_);
  busy_ = false;
  busy_us_ += service;
  ++completed_ops_;
  if (p.req.is_write) {
    bytes_written_ += p.req.bytes;
  } else {
    bytes_read_ += p.req.bytes;
  }
  const TimeUs pt = sim_.now() - p.enqueue_time;
  last_pt_ = pt;
  if (min_pt_ == 0 || pt < min_pt_) min_pt_ = pt;
  if (p.req.done) p.req.done(pt);
  maybe_dispatch();
}

}  // namespace capes::sim
