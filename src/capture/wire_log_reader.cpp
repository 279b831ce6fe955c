#include "capture/wire_log_reader.hpp"

#include <algorithm>

#include "util/frame.hpp"

namespace capes::capture {

namespace {

/// File header: magic + version + dropped_records + meta_len.
constexpr std::size_t kHeaderFixedBytes = 20;
constexpr std::size_t kReadChunkBytes = 64 * 1024;

}  // namespace

bool WireLogReader::open(const std::string& path, std::string* error) {
  *this = WireLogReader();
  const auto fail = [&](const std::string& what) {
    file_.reset();
    if (error) *error = what + path;
    return false;
  };
  file_.reset(std::fopen(path.c_str(), "rb"));
  const long size = file_ && std::fseek(file_.get(), 0, SEEK_END) == 0
                        ? std::ftell(file_.get())
                        : -1;
  if (size < 0 || std::fseek(file_.get(), 0, SEEK_SET) != 0) {
    return fail("cannot read capture file ");
  }
  file_size_ = static_cast<std::uint64_t>(size);

  std::uint8_t header[kHeaderFixedBytes];
  if (std::fread(header, 1, sizeof(header), file_.get()) != sizeof(header)) {
    return fail("capture file too short for header: ");
  }
  if (util::get_le32(header) != kWireMagic) {
    return fail("not a capture file (bad magic): ");
  }
  const std::uint32_t version = util::get_le32(header + 4);
  if (version != kWireVersion) {
    return fail("unsupported capture version " + std::to_string(version) +
                ": ");
  }
  stats_.dropped_records = util::get_le64(header + kDroppedRecordsOffset);
  const std::uint32_t meta_len = util::get_le32(header + 16);
  // Checked against the file before anything is sized from it.
  if (file_size_ - kHeaderFixedBytes < meta_len) {
    return fail("capture meta truncated: ");
  }
  meta_.resize(meta_len);
  if (meta_len > 0 &&
      std::fread(meta_.data(), 1, meta_len, file_.get()) != meta_len) {
    return fail("cannot read capture meta: ");
  }
  cursor_ = kHeaderFixedBytes + meta_len;
  chunk_.resize(kReadChunkBytes);
  return true;
}

bool WireLogReader::next(net::Frame* out) {
  while (!done_ && file_) {
    switch (parser_.next(out)) {
      case net::ParseResult::kOk:
        cursor_ += net::kFrameFixedBytes + out->payload.size();
        ++stats_.valid_records;
        return true;
      case net::ParseResult::kCorrupt:
        truncate_tail_here();
        break;
      case net::ParseResult::kNeedMore: {
        const std::size_t got =
            std::fread(chunk_.data(), 1, chunk_.size(), file_.get());
        if (got > 0) {
          parser_.feed(chunk_.data(), got);
        } else if (parser_.buffered_bytes() == 0 &&
                   !std::ferror(file_.get())) {
          done_ = true;  // clean EOF
        } else {
          truncate_tail_here();
        }
        break;
      }
    }
  }
  return false;
}

void WireLogReader::truncate_tail_here() {
  done_ = true;
  tail_truncated_ = true;
  std::FILE* f = file_.get();
  const std::uint64_t end = std::max(cursor_, file_size_);
  stats_.truncated_bytes = end - cursor_;
  // Estimate how many frames the dead region held by walking its length
  // prefixes. The bytes are untrusted, so cap each stride at the region
  // end; a trailing partial frame counts as one.
  std::uint64_t pos = cursor_;
  while (pos < end) {
    ++stats_.truncated_records;
    std::uint8_t len_le[4];
    if (end - pos < net::kFrameFixedBytes ||
        std::fseek(f, static_cast<long>(pos), SEEK_SET) != 0 ||
        std::fread(len_le, 1, sizeof(len_le), f) != sizeof(len_le)) {
      break;
    }
    const std::uint64_t stride =
        net::kFrameFixedBytes + std::uint64_t{util::get_le32(len_le)};
    if (stride > end - pos) break;
    pos += stride;
  }
}

}  // namespace capes::capture
