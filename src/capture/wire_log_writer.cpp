#include "capture/wire_log_writer.hpp"

#include <cstring>

#include "util/frame.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace capes::capture {

using util::put_le64;

WireLogWriter::WireLogWriter(WireLogWriterOptions opts,
                             const std::vector<std::uint8_t>& meta)
    : opts_(std::move(opts)),
      // Slots recycle in FIFO order: pre-size every payload buffer so a
      // cold slot meeting a large record does not allocate mid-run.
      queue_(opts_.ring_capacity, [this](net::Frame& slot) {
        slot.payload.reserve(opts_.payload_reserve);
      }) {
  file_ = std::fopen(opts_.path.c_str(), "wb");
  if (file_ == nullptr) {
    CAPES_LOG_ERROR("capture") << "cannot open capture file " << opts_.path;
    write_failed_.store(true, std::memory_order_release);
    closed_ = true;
    return;
  }

  util::BinaryWriter header;
  header.put_u32(kWireMagic);
  header.put_u32(kWireVersion);
  header.put_u64(0);  // dropped_records, patched in close()
  header.put_u32(static_cast<std::uint32_t>(meta.size()));
  header.put_raw(meta.data(), meta.size());
  if (std::fwrite(header.buffer().data(), 1, header.size(), file_) !=
      header.size()) {
    CAPES_LOG_ERROR("capture") << "cannot write capture header to "
                               << opts_.path;
    std::fclose(file_);
    file_ = nullptr;
    write_failed_.store(true, std::memory_order_release);
    closed_ = true;
    return;
  }
  bytes_written_.store(header.size(), std::memory_order_relaxed);

  f64_scratch_.reserve(opts_.payload_reserve);

  opened_ = true;
  writer_thread_ = std::thread([this] { writer_loop(); });
}

WireLogWriter::~WireLogWriter() { close(); }

void WireLogWriter::record(RecordType type, std::int64_t tick,
                           std::uint64_t topic, std::uint64_t sender,
                           const void* payload, std::size_t size) {
  if (!opened_ || closed_ || size > net::kMaxFramePayload) {
    records_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  net::Frame* slot = queue_.try_acquire();
  if (slot == nullptr) {
    // Every slot in flight: the file sink is behind. Shed rather than
    // stall the control thread; the reader learns the count from the
    // header.
    records_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot->type = static_cast<std::uint8_t>(type);
  slot->tick = tick;
  slot->topic = topic;
  slot->sender = sender;
  const auto* bytes = static_cast<const std::uint8_t*>(payload);
  slot->payload.assign(bytes, bytes + size);  // reuses slot capacity
  queue_.submit(slot);  // cannot fail: open, and the queue holds the pool
  records_logged_.fetch_add(1, std::memory_order_relaxed);
}

void WireLogWriter::record_f64s(RecordType type, std::int64_t tick,
                                std::uint64_t topic, std::uint64_t sender,
                                const double* values, std::size_t count) {
  f64_scratch_.resize(count * 8);  // capacity retained across calls
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof(bits));
    put_le64(f64_scratch_.data() + i * 8, bits);
  }
  record(type, tick, topic, sender, f64_scratch_.data(), f64_scratch_.size());
}

bool WireLogWriter::close() {
  if (closed_) return ok();
  closed_ = true;
  queue_.close();
  if (writer_thread_.joinable()) writer_thread_.join();
  if (file_ != nullptr) {
    // Patch the final drop count into the header so the reader can tell
    // a lossy capture from a faithful one.
    std::uint8_t dropped_le[8];
    put_le64(dropped_le, records_dropped_.load(std::memory_order_relaxed));
    if (std::fseek(file_, kDroppedRecordsOffset, SEEK_SET) != 0 ||
        std::fwrite(dropped_le, 1, sizeof(dropped_le), file_) !=
            sizeof(dropped_le)) {
      write_failed_.store(true, std::memory_order_release);
    }
    if (std::fclose(file_) != 0) {
      write_failed_.store(true, std::memory_order_release);
    }
    file_ = nullptr;
  }
  return ok();
}

void WireLogWriter::writer_loop() {
  std::size_t since_flush = 0;
  while (net::Frame* slot = queue_.take()) {
    if (!write_record(*slot)) {
      write_failed_.store(true, std::memory_order_release);
    }
    queue_.release(slot);
    if (opts_.flush_every_records != 0 &&
        ++since_flush >= opts_.flush_every_records) {
      std::fflush(file_);
      since_flush = 0;
    }
  }
  std::fflush(file_);
}

bool WireLogWriter::write_record(const net::Frame& rec) {
  if (write_failed_.load(std::memory_order_relaxed) ||
      !net::write_frame(file_, rec.type, rec.tick, rec.topic, rec.sender,
                        rec.payload.data(), rec.payload.size())) {
    return false;
  }
  bytes_written_.fetch_add(net::kFrameFixedBytes + rec.payload.size(),
                           std::memory_order_relaxed);
  return true;
}

}  // namespace capes::capture
