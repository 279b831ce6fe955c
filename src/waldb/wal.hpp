#pragma once
// Write-ahead log for the replay database. The paper's prototype used
// SQLite in WAL mode; this is our embedded equivalent: an append-only log
// of CRC-protected records that survives crashes (a torn tail record is
// detected by its CRC and dropped during replay).
//
// Every waldb file (this log and the Database snapshot) is an 8-byte
// header, [u32 magic][u32 version 2] little-endian, then net frames (see
// src/net/frame.hpp); waldb::Database owns what the frame fields mean.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "net/frame.hpp"

namespace capes::waldb {

/// Check a waldb file's header against `magic`, then hand its frames to
/// `fn` up to the end or the first torn/corrupt frame, reporting the cut
/// through `stats` when non-null. Returns the number of frames read; a
/// missing file, or one ending inside its header, reads as zero. Returns
/// nullopt, after logging the file and what it holds, when the file
/// cannot be read or has another header (a version-1 file is refused).
std::optional<std::size_t> read_frames(
    const std::string& path, std::uint32_t magic,
    const std::function<void(const net::Frame&)>& fn,
    net::FrameReadStats* stats = nullptr);

/// Append-only writer of a waldb file; see the layout above. The header
/// is written with the first record, so an empty log is an empty file.
class WriteAheadLog {
 public:
  static constexpr std::uint32_t kMagic = 0x4c415743u;  // "CWAL"

  WriteAheadLog() = default;
  ~WriteAheadLog() { close(); }

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Open (creating if necessary) the file at `path` for appending.
  bool open(const std::string& path, std::uint32_t magic = kMagic);
  void close();
  bool is_open() const { return file_ != nullptr; }

  /// Append one record (`sender` is not stored); false on I/O error.
  bool append(const net::Frame& record);
  bool append(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
              const std::uint8_t* payload, std::size_t payload_size);

  /// Flush buffered writes to the OS.
  bool flush();

  /// Bytes currently in the log file.
  std::uint64_t size_bytes() const { return written_; }

  /// Truncate the log to empty (after a successful checkpoint).
  bool reset();

  using ReplayStats = net::FrameReadStats;

  /// Replay a log file from disk (read_frames with this log's magic).
  static std::optional<std::size_t> replay(
      const std::string& path, const std::function<void(const net::Frame&)>& fn,
      ReplayStats* stats = nullptr) {
    return read_frames(path, kMagic, fn, stats);
  }

 private:
  std::string path_;
  std::uint32_t magic_ = kMagic;
  std::FILE* file_ = nullptr;
  std::uint64_t written_ = 0;
};

}  // namespace capes::waldb
