#pragma once
// Rotational disk model (the evaluation testbed used 7200 RPM HGST drives:
// ~113 MB/s sequential read, ~106 MB/s sequential write). The model
// reproduces the queue-depth behaviour that makes congestion-window tuning
// matter (paper §4.3):
//
//  * Random requests pay a positioning (seek + rotation) cost.
//  * Outstanding WRITES merge/coalesce in the queue: effective positioning
//    cost shrinks substantially as the write queue deepens (the paper's
//    explanation for why tuning helps write-heavy workloads most).
//  * Outstanding READS benefit only mildly from queue depth (elevator
//    reordering); they remain seek-bound, so read throughput is largely
//    insensitive to the congestion window — as observed in Figure 2.
//  * Sequential streams (offset continuing the previous request on the
//    same object) pay no positioning cost.

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace capes::sim {

struct DiskOptions {
  double seq_read_mbs = 113.0;
  double seq_write_mbs = 106.0;
  TimeUs read_positioning_us = 12000;   ///< avg seek + rotational latency
  TimeUs write_positioning_us = 12000;
  /// Queue-depth efficiency: factor = 1 + gain * (1 - exp(-queue/scale)).
  double read_queue_gain = 0.35;
  double read_queue_scale = 16.0;
  double write_queue_gain = 2.0;
  double write_queue_scale = 120.0;
  /// Multiplicative service-time noise amplitude (uniform +-).
  double service_noise = 0.08;
  /// Offset gap (bytes) still considered "sequential" on the same object.
  std::uint64_t sequential_gap = 1 << 18;
  /// Reads are dispatched ahead of queued writes (deadline/CFQ-style read
  /// preference), but at most this many in a row so writes cannot starve.
  std::size_t max_consecutive_reads = 8;
};

/// One I/O request handed to the disk.
struct DiskRequest {
  bool is_write = false;
  std::uint64_t object_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  /// Invoked at completion with the total process time (queue wait +
  /// service) in microseconds.
  std::function<void(TimeUs process_time)> done;
};

/// Single-spindle disk with read-preferring dispatch and *service times*
/// that embed elevator/merging efficiency as a function of queue depth.
class Disk {
 public:
  Disk(Simulator& sim, DiskOptions opts, util::Rng rng);

  void enqueue(DiskRequest req);

  std::size_t queue_depth() const {
    return read_queue_.size() + write_queue_.size() + (busy_ ? 1 : 0);
  }
  std::size_t queued_writes() const { return write_queue_.size(); }
  std::size_t queued_reads() const { return read_queue_.size(); }

  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t completed_ops() const { return completed_ops_; }
  TimeUs busy_time() const { return busy_us_; }

  /// Shortest process time observed so far (0 before any completion); the
  /// denominator of the PT-ratio performance indicator (§4.1).
  TimeUs min_process_time() const { return min_pt_; }
  /// Most recent process time.
  TimeUs last_process_time() const { return last_pt_; }

  /// Fault hook (straggler disks): multiply every subsequent service time
  /// by `factor` (>= 1; 1.0 restores normal service). The in-flight
  /// request keeps the service time it was dispatched with.
  void set_slow_factor(double factor) { slow_factor_ = factor; }
  double slow_factor() const { return slow_factor_; }

  /// Fault hook (OST crash): discard every queued request without
  /// completing it (the owner rejects the I/O; clients recover via their
  /// own retransmit machinery). The in-flight request, if any, still
  /// fires its completion. Returns the number of requests dropped.
  std::size_t drop_pending();

  const DiskOptions& options() const { return opts_; }

 private:
  struct Pending {
    DiskRequest req;
    TimeUs enqueue_time = 0;
  };

  void maybe_dispatch();
  /// Completion of the request in service (the event maybe_dispatch arms).
  void complete(TimeUs service);
  TimeUs service_time(const DiskRequest& req);

  Simulator& sim_;
  DiskOptions opts_;
  util::Rng rng_;
  std::deque<Pending> read_queue_;
  std::deque<Pending> write_queue_;
  std::size_t consecutive_reads_ = 0;
  bool busy_ = false;
  /// The one request in service while busy_; kept here so that its
  /// completion event captures only `this` and the service time.
  Pending in_service_;
  double slow_factor_ = 1.0;

  std::uint64_t last_object_ = ~0ULL;
  std::uint64_t last_end_offset_ = 0;

  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t completed_ops_ = 0;
  TimeUs busy_us_ = 0;
  TimeUs min_pt_ = 0;
  TimeUs last_pt_ = 0;
};

}  // namespace capes::sim
