#pragma once
// Asynchronous capture sink for the flight recorder. The control thread
// calls record() at the daemon boundary; a dedicated writer thread frames
// each record with net::write_frame (so the CRC is computed off the
// control thread) and appends it to the capture file. Records cross
// between the threads in a util::SlotQueue, so the warm tick path copies
// bytes into recycled slot capacity and performs no allocation. The
// producer NEVER blocks — when every slot is in flight, or the payload
// exceeds net::kMaxFramePayload, the record is shed and counted, and the
// final drop count is patched into the file header on close so the
// reader can tell a lossy capture apart from a faithful one.
//
// Concurrency contract: record() is single-producer — all bus drains run
// on the control thread, so every capture point already serializes there.
// close() (and the destructor) must also run on the producer thread.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "capture/wire_format.hpp"
#include "net/frame.hpp"
#include "util/slot_queue.hpp"

namespace capes::capture {

struct WireLogWriterOptions {
  std::string path;
  /// Slots in flight between the control thread and the writer thread.
  /// Rounded up to a power of two. The default absorbs multi-second file
  /// sink stalls at paper-scale traffic (~50 records/tick) before
  /// shedding anything.
  std::size_t ring_capacity = 8192;
  /// fflush() cadence on the writer thread, in records. 0 = only on close.
  std::size_t flush_every_records = 256;
  /// Initial payload capacity reserved per slot, so the warm tick path
  /// never grows a cold slot's buffer. Sized above any record the daemon
  /// emits at paper scale (PI status frames are the largest).
  std::size_t payload_reserve = 512;
};

class WireLogWriter {
 public:
  /// Opens `opts.path`, writes the file header (with `meta` embedded) and
  /// starts the writer thread. Check ok() afterwards — a writer that
  /// failed to open turns every record() into a counted drop.
  WireLogWriter(WireLogWriterOptions opts, const std::vector<std::uint8_t>& meta);
  ~WireLogWriter();

  WireLogWriter(const WireLogWriter&) = delete;
  WireLogWriter& operator=(const WireLogWriter&) = delete;

  /// True when the file opened and no write has failed since.
  bool ok() const {
    return opened_ && !write_failed_.load(std::memory_order_acquire);
  }

  /// Enqueue one record (producer thread only). Never blocks: sheds and
  /// counts the record when no slot is free or `size` exceeds
  /// net::kMaxFramePayload (a record the reader would reject).
  void record(RecordType type, std::int64_t tick, std::uint64_t topic,
              std::uint64_t sender, const void* payload, std::size_t size);

  /// Convenience: payload = `count` little-endian f64 values.
  void record_f64s(RecordType type, std::int64_t tick, std::uint64_t topic,
                   std::uint64_t sender, const double* values,
                   std::size_t count);

  std::uint64_t records_logged() const {
    return records_logged_.load(std::memory_order_relaxed);
  }
  std::uint64_t records_dropped() const {
    return records_dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  /// Drain the queued records, join the writer thread, patch the drop count
  /// into the header and close the file. Idempotent. Returns ok().
  bool close();

 private:
  void writer_loop();
  bool write_record(const net::Frame& rec);

  WireLogWriterOptions opts_;
  std::FILE* file_ = nullptr;
  bool opened_ = false;
  bool closed_ = false;

  util::SlotQueue<net::Frame> queue_;  ///< control thread -> writer thread
  std::thread writer_thread_;

  std::vector<std::uint8_t> f64_scratch_;  ///< producer-side, recycled

  std::atomic<std::uint64_t> records_logged_{0};
  std::atomic<std::uint64_t> records_dropped_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<bool> write_failed_{false};
};

}  // namespace capes::capture
