#pragma once
// Validate-before-use reader for flight-recorder captures: the file
// header is checked here, and the records behind it are read by
// net::FrameFileReader, which checks every CRC before a payload is
// surfaced and ends the capture at the first torn or corrupt frame.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "capture/wire_format.hpp"
#include "net/frame.hpp"

namespace capes::capture {

struct ReadStats : net::FrameReadStats {
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
  bool next(net::Frame* out) { return frames_.next(out); }

  /// True once next() has returned false because of a torn/corrupt tail
  /// (as opposed to a clean end of file).
  bool tail_truncated() const { return frames_.tail_truncated(); }

  ReadStats stats() const { return {frames_.stats(), dropped_records_}; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  std::unique_ptr<std::FILE, FileCloser> file_;
  net::FrameFileReader frames_;
  std::vector<std::uint8_t> meta_;
  std::uint64_t dropped_records_ = 0;
};

}  // namespace capes::capture
