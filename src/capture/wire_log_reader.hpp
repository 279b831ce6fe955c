#pragma once
// Validate-before-use reader for flight-recorder captures. Mirrors the
// WAL recovery contract (src/waldb/wal.cpp): every record's CRC is
// checked before its payload is surfaced, and the first torn or corrupt
// frame truncates the capture there — everything before it replays,
// everything from it onward is counted and reported, never delivered.
// Records go through net::FrameParser, fed from the file in fixed read
// chunks, so the reader holds one chunk plus one frame whatever the
// file's size, and no length from the file is used before it is checked.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "capture/wire_format.hpp"
#include "net/frame.hpp"

namespace capes::capture {

struct ReadStats {
  std::uint64_t valid_records = 0;
  /// Frames lost to a torn/corrupt tail. Counted by walking the length
  /// prefixes of the dead region, so for genuinely scrambled bytes this
  /// is an estimate (always >= 1 when any tail was cut).
  std::uint64_t truncated_records = 0;
  std::uint64_t truncated_bytes = 0;
  /// Records the live run's capture ring shed (from the file header). A
  /// nonzero count means the capture is lossy and differential PI
  /// decoding may desynchronize — replay tools should warn.
  std::uint64_t dropped_records = 0;
};

class WireLogReader {
 public:
  /// Open `path` and validate its header. On failure returns false and
  /// describes the problem in `*error` (never partially usable).
  bool open(const std::string& path, std::string* error);

  /// The meta blob embedded at capture time (TraceMeta::decode it).
  const std::vector<std::uint8_t>& meta() const { return meta_; }

  /// Read the next valid record; `out->type` is a RecordType value.
  /// Returns false at end of capture — clean EOF or torn tail alike;
  /// stats() tells them apart.
  bool next(net::Frame* out);

  /// True once next() has returned false because of a torn/corrupt tail
  /// (as opposed to a clean end of file).
  bool tail_truncated() const { return tail_truncated_; }

  const ReadStats& stats() const { return stats_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  void truncate_tail_here();

  std::unique_ptr<std::FILE, FileCloser> file_;
  net::FrameParser parser_;
  std::vector<std::uint8_t> chunk_;
  std::vector<std::uint8_t> meta_;
  std::uint64_t file_size_ = 0;  ///< as measured by open()
  /// File offset of the first byte not yet returned as a valid record.
  std::uint64_t cursor_ = 0;
  bool tail_truncated_ = false;
  bool done_ = false;
  ReadStats stats_;
};

}  // namespace capes::capture
