#include "net/frame.hpp"

#include <algorithm>
#include <cstring>

#include "util/crc32.hpp"
#include "util/frame.hpp"

namespace capes::net {

namespace {

std::uint32_t crc_of(const std::uint8_t* fixed, const std::uint8_t* payload,
                     std::size_t payload_size) {
  const std::uint32_t crc = util::crc32(fixed, kFrameCrcFixedBytes);
  return payload_size > 0 ? util::crc32_update(crc, payload, payload_size)
                          : crc;
}

/// The kFrameFixedBytes header of a frame into out[0, kFrameFixedBytes).
void encode_header(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
                   std::uint64_t sender, const std::uint8_t* payload,
                   std::size_t payload_size, std::uint8_t* out) {
  out[8] = type;
  util::put_le64(out + 9, static_cast<std::uint64_t>(tick));
  util::put_le64(out + 17, topic);
  util::put_le64(out + 25, sender);
  util::put_le32(out, static_cast<std::uint32_t>(payload_size));
  util::put_le32(out + 4, crc_of(out + 8, payload, payload_size));
}

constexpr std::size_t kReadChunkBytes = 64 * 1024;

}  // namespace

std::uint32_t frame_crc(const Frame& frame) {
  std::uint8_t header[kFrameFixedBytes];
  encode_header(frame.type, frame.tick, frame.topic, frame.sender,
                frame.payload.data(), frame.payload.size(), header);
  return util::get_le32(header + 4);
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>* out) {
  encode_frame(frame.type, frame.tick, frame.topic, frame.sender,
               frame.payload.data(), frame.payload.size(), out);
}

void encode_frame(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
                  std::uint64_t sender, const std::uint8_t* payload,
                  std::size_t payload_size, std::vector<std::uint8_t>* out) {
  const std::size_t base = out->size();
  out->resize(base + kFrameFixedBytes + payload_size);
  std::uint8_t* p = out->data() + base;
  encode_header(type, tick, topic, sender, payload, payload_size, p);
  if (payload_size > 0) {
    std::memcpy(p + kFrameFixedBytes, payload, payload_size);
  }
}

bool write_frame(std::FILE* file, std::uint8_t type, std::int64_t tick,
                 std::uint64_t topic, std::uint64_t sender,
                 const std::uint8_t* payload, std::size_t payload_size) {
  std::uint8_t header[kFrameFixedBytes];
  encode_header(type, tick, topic, sender, payload, payload_size, header);
  return std::fwrite(header, 1, sizeof(header), file) == sizeof(header) &&
         (payload_size == 0 ||
          std::fwrite(payload, 1, payload_size, file) == payload_size);
}

void FrameParser::feed(const std::uint8_t* data, std::size_t size) {
  // Compact the consumed prefix before growing; steady state keeps the
  // buffer at one partial frame, so this is a small move, not a churn.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

ParseResult FrameParser::next(Frame* out) {
  if (corrupt_) return ParseResult::kCorrupt;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameFixedBytes) return ParseResult::kNeedMore;
  const std::uint8_t* p = buf_.data() + pos_;
  const std::uint32_t payload_len = util::get_le32(p);
  if (payload_len > max_payload_) {
    corrupt_ = true;
    return ParseResult::kCorrupt;
  }
  if (avail < kFrameFixedBytes + payload_len) return ParseResult::kNeedMore;
  // Validate before use: *out is untouched unless the CRC matches.
  const std::uint8_t* payload = p + kFrameFixedBytes;
  if (crc_of(p + 8, payload, payload_len) != util::get_le32(p + 4)) {
    corrupt_ = true;
    return ParseResult::kCorrupt;
  }
  out->type = p[8];
  out->tick = static_cast<std::int64_t>(util::get_le64(p + 9));
  out->topic = util::get_le64(p + 17);
  out->sender = util::get_le64(p + 25);
  out->payload.assign(payload, payload + payload_len);
  pos_ += kFrameFixedBytes + payload_len;
  return ParseResult::kOk;
}

FrameFileReader::FrameFileReader(std::FILE* file, std::size_t max_payload)
    : file_(file),
      parser_(max_payload),
      cursor_(static_cast<std::uint64_t>(std::max(std::ftell(file), 0L))),
      done_(false) {}

bool FrameFileReader::next(Frame* out) {
  while (!done_) {
    switch (parser_.next(out)) {
      case ParseResult::kOk:
        cursor_ += kFrameFixedBytes + out->payload.size();
        ++stats_.valid_records;
        return true;
      case ParseResult::kCorrupt:
        truncate_tail_here();
        break;
      case ParseResult::kNeedMore: {
        chunk_.resize(kReadChunkBytes);
        const std::size_t got =
            std::fread(chunk_.data(), 1, chunk_.size(), file_);
        if (got > 0) {
          parser_.feed(chunk_.data(), got);
        } else if (parser_.buffered_bytes() == 0 && !std::ferror(file_)) {
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

void FrameFileReader::truncate_tail_here() {
  done_ = true;
  const long size =
      std::fseek(file_, 0, SEEK_END) == 0 ? std::ftell(file_) : -1;
  const std::uint64_t end =
      size > 0 ? std::max(cursor_, static_cast<std::uint64_t>(size)) : cursor_;
  stats_.truncated_bytes = end - cursor_;
  // Estimate how many frames the dead region held by walking its length
  // prefixes. The bytes are untrusted, so cap each stride at the region
  // end; a trailing partial frame counts as one.
  std::uint64_t pos = cursor_;
  do {
    ++stats_.truncated_records;
    std::uint8_t len_le[4];
    if (end - pos < kFrameFixedBytes ||
        std::fseek(file_, static_cast<long>(pos), SEEK_SET) != 0 ||
        std::fread(len_le, 1, sizeof(len_le), file_) != sizeof(len_le)) {
      break;
    }
    pos += kFrameFixedBytes + std::uint64_t{util::get_le32(len_le)};
  } while (pos < end);
}

}  // namespace capes::net
