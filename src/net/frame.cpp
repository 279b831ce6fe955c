#include "net/frame.hpp"

#include <cstring>

#include "util/crc32.hpp"
#include "util/frame.hpp"

namespace capes::net {

namespace {

/// The CRC-covered fixed fields (type, tick, topic, sender) into
/// out[0, kFrameCrcFixedBytes).
void encode_fixed(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
                  std::uint64_t sender, std::uint8_t* out) {
  out[0] = type;
  util::put_le64(out + 1, static_cast<std::uint64_t>(tick));
  util::put_le64(out + 9, topic);
  util::put_le64(out + 17, sender);
}

std::uint32_t crc_of(const std::uint8_t* fixed, const std::uint8_t* payload,
                     std::size_t payload_size) {
  const std::uint32_t crc = util::crc32(fixed, kFrameCrcFixedBytes);
  return payload_size > 0 ? util::crc32_update(crc, payload, payload_size)
                          : crc;
}

}  // namespace

std::uint32_t frame_crc(const Frame& frame) {
  std::uint8_t fixed[kFrameCrcFixedBytes];
  encode_fixed(frame.type, frame.tick, frame.topic, frame.sender, fixed);
  return crc_of(fixed, frame.payload.data(), frame.payload.size());
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
  encode_fixed(type, tick, topic, sender, p + 8);
  if (payload_size > 0) {
    std::memcpy(p + kFrameFixedBytes, payload, payload_size);
  }
  util::put_le32(p, static_cast<std::uint32_t>(payload_size));
  util::put_le32(p + 4, crc_of(p + 8, payload, payload_size));
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
  if (payload_len > kMaxFramePayload) {
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

}  // namespace capes::net
