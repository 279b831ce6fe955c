// The tcp wire format: encode/parse round trips, torn (byte-at-a-time)
// delivery, and sticky corruption on CRC or length damage.

#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/frame.hpp"

namespace capes::net {
namespace {

Frame make_frame(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
                 std::uint64_t sender, std::size_t payload_size) {
  Frame f;
  f.type = type;
  f.tick = tick;
  f.topic = topic;
  f.sender = sender;
  f.payload.resize(payload_size);
  for (std::size_t i = 0; i < payload_size; ++i) {
    f.payload[i] = static_cast<std::uint8_t>(i * 37 + type);
  }
  return f;
}

void expect_same(const Frame& a, const Frame& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.tick, b.tick);
  EXPECT_EQ(a.topic, b.topic);
  EXPECT_EQ(a.sender, b.sender);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(NetFrame, RoundTripsSingleFrame) {
  const Frame sent = make_frame(3, -17, 42, 7, 100);
  std::vector<std::uint8_t> wire;
  encode_frame(sent, &wire);
  ASSERT_EQ(wire.size(), kFrameFixedBytes + 100);

  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  Frame got;
  ASSERT_EQ(parser.next(&got), ParseResult::kOk);
  expect_same(sent, got);
  EXPECT_EQ(parser.next(&got), ParseResult::kNeedMore);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(NetFrame, RoundTripsEmptyPayload) {
  const Frame sent = make_frame(16, 0, 0, 0, 0);
  std::vector<std::uint8_t> wire;
  encode_frame(sent, &wire);
  ASSERT_EQ(wire.size(), kFrameFixedBytes);
  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  Frame got;
  ASSERT_EQ(parser.next(&got), ParseResult::kOk);
  expect_same(sent, got);
}

TEST(NetFrame, RawFieldEncodeMatchesFrameEncode) {
  const Frame sent = make_frame(4, 1234, 2, 1, 64);
  std::vector<std::uint8_t> via_frame;
  encode_frame(sent, &via_frame);
  std::vector<std::uint8_t> via_fields;
  encode_frame(sent.type, sent.tick, sent.topic, sent.sender,
               sent.payload.data(), sent.payload.size(), &via_fields);
  EXPECT_EQ(via_frame, via_fields);
}

TEST(NetFrame, EncodeAppendsSeveralFramesIntoOneBuffer) {
  std::vector<Frame> sent;
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(make_frame(static_cast<std::uint8_t>(i + 1), i * 10,
                              static_cast<std::uint64_t>(i), 0,
                              static_cast<std::size_t>(i * 31)));
    encode_frame(sent.back(), &wire);
  }
  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  Frame got;
  for (const Frame& expected : sent) {
    ASSERT_EQ(parser.next(&got), ParseResult::kOk);
    expect_same(expected, got);
  }
  EXPECT_EQ(parser.next(&got), ParseResult::kNeedMore);
}

TEST(NetFrame, SurvivesTornByteAtATimeDelivery) {
  const Frame sent = make_frame(2, 99, 1, 3, 57);
  std::vector<std::uint8_t> wire;
  encode_frame(sent, &wire);
  FrameParser parser;
  Frame got;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    parser.feed(&wire[i], 1);
    ASSERT_EQ(parser.next(&got), ParseResult::kNeedMore)
        << "frame complete after " << (i + 1) << " of " << wire.size()
        << " bytes";
  }
  parser.feed(&wire[wire.size() - 1], 1);
  ASSERT_EQ(parser.next(&got), ParseResult::kOk);
  expect_same(sent, got);
}

TEST(NetFrame, PayloadVectorIsReusedAcrossFrames) {
  std::vector<std::uint8_t> wire;
  encode_frame(make_frame(1, 0, 0, 0, 200), &wire);
  encode_frame(make_frame(2, 1, 0, 0, 50), &wire);
  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  Frame got;
  ASSERT_EQ(parser.next(&got), ParseResult::kOk);
  const std::uint8_t* const data_before = got.payload.data();
  const std::size_t cap_before = got.payload.capacity();
  ASSERT_EQ(parser.next(&got), ParseResult::kOk);
  EXPECT_EQ(got.payload.size(), 50u);
  // The second, smaller payload reuses the first frame's allocation.
  EXPECT_EQ(got.payload.data(), data_before);
  EXPECT_EQ(got.payload.capacity(), cap_before);
}

TEST(NetFrame, CorruptPayloadByteIsSticky) {
  const Frame sent = make_frame(5, 7, 1, 1, 40);
  std::vector<std::uint8_t> wire;
  encode_frame(sent, &wire);
  wire[kFrameFixedBytes + 10] ^= 0x01;  // flip one payload bit

  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  Frame got;
  EXPECT_EQ(parser.next(&got), ParseResult::kCorrupt);
  // Sticky: even after feeding a pristine frame, the stream stays dead.
  std::vector<std::uint8_t> clean;
  encode_frame(sent, &clean);
  parser.feed(clean.data(), clean.size());
  EXPECT_EQ(parser.next(&got), ParseResult::kCorrupt);
}

TEST(NetFrame, CorruptHeaderFieldFailsTheCrc) {
  const Frame sent = make_frame(5, 7, 1, 1, 8);
  std::vector<std::uint8_t> wire;
  encode_frame(sent, &wire);
  wire[8] ^= 0xFF;  // the type byte, inside the CRC'd region
  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  Frame got;
  EXPECT_EQ(parser.next(&got), ParseResult::kCorrupt);
}

TEST(NetFrame, InsaneLengthPrefixIsCorruptNotAnAllocation) {
  std::vector<std::uint8_t> wire;
  encode_frame(make_frame(1, 0, 0, 0, 4), &wire);
  // Overwrite the length prefix with something past the sanity bound: the
  // parser must refuse immediately instead of waiting for 4 GB of input.
  util::put_le32(wire.data(), 0xFFFFFFFFu);
  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  Frame got;
  EXPECT_EQ(parser.next(&got), ParseResult::kCorrupt);
}

TEST(NetFrame, PayloadBoundIsSetAtConstruction) {
  const Frame big = make_frame(1, 0, 0, 0, kMaxFramePayload + 1);
  std::vector<std::uint8_t> wire;
  encode_frame(big, &wire);
  Frame got;
  FrameParser tcp;  // the tcp and capture bound
  tcp.feed(wire.data(), wire.size());
  EXPECT_EQ(tcp.next(&got), ParseResult::kCorrupt);
  FrameParser file(kMaxFramePayload + 1);
  file.feed(wire.data(), wire.size());
  ASSERT_EQ(file.next(&got), ParseResult::kOk);
  expect_same(big, got);
}

TEST(NetFrame, StoredCrcMatchesFrameCrc) {
  const Frame sent = make_frame(6, 123, 9, 2, 16);
  std::vector<std::uint8_t> wire;
  encode_frame(sent, &wire);
  EXPECT_EQ(util::get_le32(wire.data() + 4), frame_crc(sent));
}

}  // namespace
}  // namespace capes::net
