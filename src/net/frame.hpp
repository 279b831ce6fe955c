#pragma once
// capes::net — the tcp control-network wire format. One frame is one bus
// message, and the same bytes are one flight-recorder record:
//
//   [u32 payload_len][u32 crc][u8 type][i64 tick][u64 topic][u64 sender]
//   [payload_len bytes]                                (all little-endian)
//
// The CRC covers the 25 fixed bytes from `type` onward plus the payload.
// This file is the one codec of the layout, for sockets and files alike:
// capture files (so a distributed run's trace replays unchanged) and the
// waldb WAL and snapshot store the same frames, read by FrameFileReader.
//
// Frame `type` values are owned by the protocol layer (core/remote_brain
// reuses capture::RecordType values for the records it mirrors); net
// itself reserves only kHeartbeatFrameType, which endpoints exchange and
// filter before frames reach the control thread.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace capes::net {

/// len + crc + type + tick + topic + sender.
inline constexpr std::size_t kFrameFixedBytes = 4 + 4 + 1 + 8 + 8 + 8;
/// The CRC'd prefix: type + tick + topic + sender.
inline constexpr std::size_t kFrameCrcFixedBytes = 1 + 8 + 8 + 8;
/// Sanity bound of tcp and capture: a length prefix above this marks the
/// stream corrupt (control-plane payloads are hundreds of bytes).
inline constexpr std::size_t kMaxFramePayload = 16u << 20;
/// Keepalive exchanged by idle endpoints; never surfaced to consumers.
inline constexpr std::uint8_t kHeartbeatFrameType = 255;

struct Frame {
  std::uint8_t type = 0;
  std::int64_t tick = 0;
  std::uint64_t topic = 0;
  std::uint64_t sender = 0;
  std::vector<std::uint8_t> payload;
};

/// CRC over the fixed header fields and payload (the stored checksum).
std::uint32_t frame_crc(const Frame& frame);

/// Append the full encoding of `frame` to `out` (existing bytes kept, so
/// a sender can pack several frames into one buffer).
void encode_frame(const Frame& frame, std::vector<std::uint8_t>* out);

/// Same, from raw fields — the allocation-free hot path (no Frame
/// temporary, payload never copied into an intermediate vector).
void encode_frame(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
                  std::uint64_t sender, const std::uint8_t* payload,
                  std::size_t payload_size, std::vector<std::uint8_t>* out);

/// Write one frame to `file`, the payload straight from `payload` (no
/// staging copy, whatever its size). False on a short write.
bool write_frame(std::FILE* file, std::uint8_t type, std::int64_t tick,
                 std::uint64_t topic, std::uint64_t sender,
                 const std::uint8_t* payload, std::size_t payload_size);

enum class ParseResult {
  kOk,        ///< one frame extracted
  kNeedMore,  ///< buffer holds only a frame prefix
  kCorrupt,   ///< CRC mismatch or insane length — the stream is dead
};

/// Incremental decoder for a TCP stream or a file: feed() appends raw
/// bytes, next() peels complete, CRC-checked frames. Single-threaded.
/// Corruption (a bad CRC, or a length above `max_payload`) is sticky: TCP
/// already guarantees integrity, so it means a framing bug or a hostile
/// peer, and the connection must die rather than resynchronize; a file
/// ends at its first bad frame.
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void feed(const std::uint8_t* data, std::size_t size);

  /// Extract the next complete frame into *out. The payload vector is
  /// reused across calls when the caller hands the same Frame back.
  ParseResult next(Frame* out);

  std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix, compacted inside feed()
  std::size_t max_payload_;
  bool corrupt_ = false;
};

struct FrameReadStats {
  std::uint64_t valid_records = 0;
  /// Frames lost to a torn/corrupt tail. Counted by walking the length
  /// prefixes of the dead region, so for genuinely scrambled bytes this
  /// is an estimate (always >= 1 when any tail was cut).
  std::uint64_t truncated_records = 0;
  std::uint64_t truncated_bytes = 0;
};

/// The torn-tail reader of every file of frames: a FrameParser fed in
/// fixed read chunks, so it holds one chunk plus one frame whatever the
/// file's size. The first torn or corrupt frame ends the file; what
/// follows is counted in stats(), never delivered.
class FrameFileReader {
 public:
  FrameFileReader() = default;
  /// Read from `file`'s current position (past any file header) to its
  /// end; the caller keeps `file` open.
  FrameFileReader(std::FILE* file, std::size_t max_payload);

  /// The next valid frame; false at a clean EOF or a torn tail alike.
  bool next(Frame* out);

  bool tail_truncated() const { return stats_.truncated_records > 0; }
  const FrameReadStats& stats() const { return stats_; }

 private:
  void truncate_tail_here();

  std::FILE* file_ = nullptr;
  FrameParser parser_;
  std::vector<std::uint8_t> chunk_;
  /// File offset of the first byte not yet returned as a valid frame.
  std::uint64_t cursor_ = 0;
  bool done_ = true;
  FrameReadStats stats_;
};

}  // namespace capes::net
