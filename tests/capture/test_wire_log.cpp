#include <gtest/gtest.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "capture/trace_meta.hpp"
#include "capture/wire_log_reader.hpp"
#include "capture/wire_log_writer.hpp"
#include "net/frame.hpp"
#include "util/serialize.hpp"

namespace capes::capture {
namespace {

class WireLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("capes_capture_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "trace.cap").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

std::vector<std::uint8_t> tiny_meta() { return {0xde, 0xad, 0xbe, 0xef}; }

/// Write `n` records with recognizable fields and close the file.
void write_capture(const std::string& path, int n,
                   const std::vector<std::uint8_t>& meta = tiny_meta()) {
  WireLogWriterOptions opts;
  opts.path = path;
  WireLogWriter writer(opts, meta);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < n; ++i) {
    const std::vector<std::uint8_t> payload(static_cast<std::size_t>(i % 7),
                                            static_cast<std::uint8_t>(i));
    writer.record(static_cast<RecordType>(1 + (i % 4)), i, 100u + i, 200u + i,
                  payload.data(), payload.size());
  }
  ASSERT_TRUE(writer.close());
  EXPECT_EQ(writer.records_logged(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(writer.records_dropped(), 0u);
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// The capture format, byte for byte: header (magic, version, drop count,
// meta), then one record per call below. Any change to these bytes
// breaks every capture already on disk.
TEST_F(WireLogTest, FormatBytesArePinned) {
  const std::uint8_t status[3] = {0x01, 0x80, 0xff};
  const double reward[2] = {1.5, -0.25};
  const std::uint8_t phase = 1;
  {
    WireLogWriterOptions opts;
    opts.path = path_;
    WireLogWriter writer(opts, tiny_meta());
    ASSERT_TRUE(writer.ok());
    writer.record(RecordType::kStatus, 7, 0x1122334455667788ull, 3, status,
                  sizeof(status));
    writer.record(RecordType::kWorkloadChange, -1, 0, 0, nullptr, 0);
    writer.record_f64s(RecordType::kReward, 8, 2, 0, reward, 2);
    writer.record(RecordType::kPhaseBegin, 9, 0, 0, &phase, 1);
    ASSERT_TRUE(writer.close());
  }
  const auto bytes = util::read_file(path_);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(to_hex(*bytes),
            // Header (CAPW, version 1, 0 dropped, meta_len 4, meta),
            // then each record from the start of a line.
            "4341505701000000000000000000000004000000deadbeef"
            "03000000533939d3010700000000000000887766554433221103000000000000"
            "000180ff"
            "000000008aa38b8b07ffffffffffffffff000000000000000000000000000000"
            "00"
            "100000002f83900f020800000000000000020000000000000000000000000000"
            "00000000000000f83f000000000000d0bf"
            "0100000054bde29c050900000000000000000000000000000000000000000000"
            "0001");

  // The record region is exactly what the tcp link sends for the same
  // records: one codec for both.
  std::vector<std::uint8_t> frames;
  net::encode_frame(1, 7, 0x1122334455667788ull, 3, status, sizeof(status),
                    &frames);
  net::encode_frame(7, -1, 0, 0, nullptr, 0, &frames);
  std::uint8_t reward_le[16];
  for (int i = 0; i < 2; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &reward[i], sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      reward_le[i * 8 + b] = static_cast<std::uint8_t>(bits >> (8 * b));
    }
  }
  net::encode_frame(2, 8, 2, 0, reward_le, sizeof(reward_le), &frames);
  net::encode_frame(5, 9, 0, 0, &phase, 1, &frames);
  const std::size_t header = 20 + tiny_meta().size();
  ASSERT_EQ(bytes->size(), header + frames.size());
  EXPECT_EQ(std::vector<std::uint8_t>(bytes->begin() + header, bytes->end()),
            frames);
}

TEST_F(WireLogTest, RoundTripPreservesEveryField) {
  write_capture(path_, 25);
  WireLogReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  EXPECT_EQ(reader.meta(), tiny_meta());
  net::Frame rec;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(reader.next(&rec)) << "record " << i;
    EXPECT_EQ(rec.type, 1 + (i % 4));
    EXPECT_EQ(rec.tick, i);
    EXPECT_EQ(rec.topic, 100u + static_cast<std::uint64_t>(i));
    EXPECT_EQ(rec.sender, 200u + static_cast<std::uint64_t>(i));
    EXPECT_EQ(rec.payload,
              std::vector<std::uint8_t>(static_cast<std::size_t>(i % 7),
                                        static_cast<std::uint8_t>(i)));
  }
  EXPECT_FALSE(reader.next(&rec));
  EXPECT_FALSE(reader.tail_truncated());
  EXPECT_EQ(reader.stats().valid_records, 25u);
  EXPECT_EQ(reader.stats().truncated_records, 0u);
  EXPECT_EQ(reader.stats().dropped_records, 0u);
}

TEST_F(WireLogTest, F64PayloadRoundTrips) {
  {
    WireLogWriterOptions opts;
    opts.path = path_;
    WireLogWriter writer(opts, tiny_meta());
    ASSERT_TRUE(writer.ok());
    const double values[3] = {1.25, -7.5e300, 0.0};
    writer.record_f64s(RecordType::kReward, 42, 1, 2, values, 3);
    ASSERT_TRUE(writer.close());
  }
  WireLogReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  net::Frame rec;
  ASSERT_TRUE(reader.next(&rec));
  ASSERT_EQ(rec.payload.size(), 24u);
  double got[3];
  for (int i = 0; i < 3; ++i) {
    std::uint64_t bits = 0;
    for (int b = 7; b >= 0; --b) {
      bits = (bits << 8) | rec.payload[static_cast<std::size_t>(i * 8 + b)];
    }
    std::memcpy(&got[i], &bits, 8);
  }
  EXPECT_EQ(got[0], 1.25);
  EXPECT_EQ(got[1], -7.5e300);
  EXPECT_EQ(got[2], 0.0);
}

TEST_F(WireLogTest, EmptyCaptureIsCleanEof) {
  write_capture(path_, 0);
  WireLogReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  net::Frame rec;
  EXPECT_FALSE(reader.next(&rec));
  EXPECT_FALSE(reader.tail_truncated());
  EXPECT_EQ(reader.stats().valid_records, 0u);
}

TEST_F(WireLogTest, TornTailTruncatesAtLastValidRecord) {
  write_capture(path_, 10);
  // Tear a few bytes off the end — a crash mid-append.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 5);
  WireLogReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  net::Frame rec;
  std::uint64_t valid = 0;
  while (reader.next(&rec)) ++valid;
  EXPECT_EQ(valid, 9u);
  EXPECT_TRUE(reader.tail_truncated());
  EXPECT_EQ(reader.stats().valid_records, 9u);
  EXPECT_EQ(reader.stats().truncated_records, 1u);
  EXPECT_GT(reader.stats().truncated_bytes, 0u);
}

TEST_F(WireLogTest, MidFileCorruptionDropsEverythingAfter) {
  write_capture(path_, 10);
  // Flip a byte inside the 4th record's frame. Records have payload
  // lengths i % 7, so offsets are computable: header 20 + 4 meta bytes,
  // record i is 33 + (i % 7) bytes.
  std::size_t offset = 20 + 4;
  for (int i = 0; i < 3; ++i) offset += 33 + static_cast<std::size_t>(i % 7);
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset) + 10);
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset) + 10);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  WireLogReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  net::Frame rec;
  std::uint64_t valid = 0;
  while (reader.next(&rec)) ++valid;
  EXPECT_EQ(valid, 3u);
  EXPECT_TRUE(reader.tail_truncated());
  // The length-prefix walk sees the 7 whole records behind the bad CRC.
  EXPECT_EQ(reader.stats().truncated_records, 7u);
}

TEST_F(WireLogTest, OversizedPayloadIsShedNotWritten) {
  {
    WireLogWriterOptions opts;
    opts.path = path_;
    WireLogWriter writer(opts, tiny_meta());
    ASSERT_TRUE(writer.ok());
    const std::vector<std::uint8_t> big(net::kMaxFramePayload + 1, 0xab);
    writer.record(RecordType::kStatus, 0, 0, 0, big.data(), big.size());
    const std::uint8_t b = 1;
    writer.record(RecordType::kStatus, 1, 0, 0, &b, 1);
    ASSERT_TRUE(writer.close());
    EXPECT_EQ(writer.records_logged(), 1u);
    EXPECT_EQ(writer.records_dropped(), 1u);
  }
  WireLogReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  net::Frame rec;
  ASSERT_TRUE(reader.next(&rec));
  EXPECT_EQ(rec.tick, 1);
  EXPECT_FALSE(reader.next(&rec));
  EXPECT_FALSE(reader.tail_truncated());
  EXPECT_EQ(reader.stats().dropped_records, 1u);
}

void patch_le32(const std::string& path, std::streamoff offset,
                std::uint32_t value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(offset);
  for (int b = 0; b < 4; ++b) f.put(static_cast<char>(value >> (8 * b)));
}

// Length fields from the file are checked before anything is sized from
// them: a forged meta length fails open(), and a forged record length
// ends the capture there, like a bad CRC.
TEST_F(WireLogTest, HostileLengthPrefixesAreRejected) {
  write_capture(path_, 5);
  patch_le32(path_, 16, 0xFFFFFFFFu);  // meta_len
  WireLogReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(path_, &error));
  EXPECT_NE(error.find("meta truncated"), std::string::npos) << error;

  write_capture(path_, 5);
  // Header 20 + 4 meta bytes; record i is 33 + (i % 7) bytes.
  const std::size_t record2 = 24 + 33 + 34;
  patch_le32(path_, static_cast<std::streamoff>(record2), 0xFFFFFFFFu);
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  net::Frame rec;
  std::uint64_t valid = 0;
  while (reader.next(&rec)) ++valid;
  EXPECT_EQ(valid, 2u);
  EXPECT_TRUE(reader.tail_truncated());
  EXPECT_EQ(reader.stats().truncated_records, 1u);
  EXPECT_EQ(reader.stats().truncated_bytes,
            std::filesystem::file_size(path_) - record2);
}

#ifdef __GLIBC__
std::ptrdiff_t heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<std::ptrdiff_t>(m.uordblks + m.hblkhd);
}
#endif

// The reader streams the file: reading a capture holds one read chunk
// plus one frame, not the whole file.
TEST_F(WireLogTest, ReaderHeapDoesNotGrowWithTheFile) {
#ifndef __GLIBC__
  GTEST_SKIP() << "heap accounting needs glibc's mallinfo2";
#else
  constexpr int kRecords = 4000;
  {
    WireLogWriterOptions opts;
    opts.path = path_;
    WireLogWriter writer(opts, tiny_meta());
    ASSERT_TRUE(writer.ok());
    const std::vector<std::uint8_t> payload(1000, 0x5a);
    for (int i = 0; i < kRecords; ++i) {
      writer.record(RecordType::kStatus, i, 0, 0, payload.data(),
                    payload.size());
    }
    ASSERT_TRUE(writer.close());
    ASSERT_EQ(writer.records_dropped(), 0u);
  }
  ASSERT_GT(std::filesystem::file_size(path_), 4'000'000u);
  net::Frame rec;
  rec.payload.reserve(1000);
  const std::ptrdiff_t before = heap_in_use();
  std::ptrdiff_t peak = 0;
  int valid = 0;
  {
    WireLogReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path_, &error)) << error;
    while (reader.next(&rec)) {
      ++valid;
      peak = std::max(peak, heap_in_use() - before);
    }
  }
  EXPECT_EQ(valid, kRecords);
  EXPECT_LT(peak, 512 * 1024);
#endif
}

TEST_F(WireLogTest, ReaderSurfacesHeaderDropCount) {
  write_capture(path_, 3);
  // Patch the header's dropped_records field the way a lossy writer
  // would (offset 8, little-endian u64).
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(kDroppedRecordsOffset);
    f.put(5);
  }
  WireLogReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  EXPECT_EQ(reader.stats().dropped_records, 5u);
}

TEST_F(WireLogTest, RejectsBadMagicAndShortHeader) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "not a capture file";
  }
  WireLogReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(path_, &error));
  EXPECT_FALSE(error.empty());

  {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f << "CA";  // shorter than any header
  }
  error.clear();
  EXPECT_FALSE(reader.open(path_, &error));
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_FALSE(reader.open((dir_ / "missing.cap").string(), &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(WireLogTest, WriterToUnwritablePathCountsDrops) {
  WireLogWriterOptions opts;
  opts.path = (dir_ / "no_such_subdir" / "trace.cap").string();
  WireLogWriter writer(opts, tiny_meta());
  EXPECT_FALSE(writer.ok());
  const std::uint8_t b = 1;
  writer.record(RecordType::kStatus, 0, 0, 0, &b, 1);
  writer.record(RecordType::kStatus, 1, 0, 0, &b, 1);
  EXPECT_EQ(writer.records_logged(), 0u);
  EXPECT_EQ(writer.records_dropped(), 2u);
  EXPECT_FALSE(writer.close());
}

TEST_F(WireLogTest, CloseIsIdempotent) {
  WireLogWriterOptions opts;
  opts.path = path_;
  WireLogWriter writer(opts, tiny_meta());
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer.close());
  EXPECT_TRUE(writer.close());
}

TEST(TraceMeta, EncodeDecodeRoundTripsEveryField) {
  TraceMeta m;
  m.num_domains = 3;
  m.num_nodes = 12;
  m.pis_per_node = 4;
  m.num_actions = 9;
  m.sampling_tick_s = 0.5;
  m.engine_seed = 0x1122334455667788ull;
  m.dqn_seed = 0x99aabbccddeeff00ull;
  m.use_double_dqn = true;
  m.use_target_network = false;
  m.loss_kind = 2;
  m.activation = 1;
  m.num_hidden_layers = 5;
  m.hidden_size = 640;
  m.gamma = 0.875f;
  m.learning_rate = 3e-3f;
  m.target_update_alpha = 0.125f;
  m.minibatch_size = 64;
  m.train_steps_per_tick = 7;
  m.eval_epsilon = 0.01;
  m.epsilon_initial = 0.9;
  m.epsilon_final = 0.1;
  m.epsilon_anneal_ticks = 12345;
  m.epsilon_bump_value = 0.33;
  m.epsilon_bump_ticks = 777;
  m.ticks_per_observation = 13;
  m.missing_tolerance = 0.45;
  m.max_ticks_retained = 100000;
  m.initial_weights_fingerprint = 0xcafef00du;

  const auto blob = m.encode();
  const auto decoded = TraceMeta::decode(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->num_domains, m.num_domains);
  EXPECT_EQ(decoded->num_nodes, m.num_nodes);
  EXPECT_EQ(decoded->pis_per_node, m.pis_per_node);
  EXPECT_EQ(decoded->num_actions, m.num_actions);
  EXPECT_EQ(decoded->sampling_tick_s, m.sampling_tick_s);
  EXPECT_EQ(decoded->engine_seed, m.engine_seed);
  EXPECT_EQ(decoded->dqn_seed, m.dqn_seed);
  EXPECT_EQ(decoded->use_double_dqn, m.use_double_dqn);
  EXPECT_EQ(decoded->use_target_network, m.use_target_network);
  EXPECT_EQ(decoded->loss_kind, m.loss_kind);
  EXPECT_EQ(decoded->activation, m.activation);
  EXPECT_EQ(decoded->num_hidden_layers, m.num_hidden_layers);
  EXPECT_EQ(decoded->hidden_size, m.hidden_size);
  EXPECT_EQ(decoded->gamma, m.gamma);
  EXPECT_EQ(decoded->learning_rate, m.learning_rate);
  EXPECT_EQ(decoded->target_update_alpha, m.target_update_alpha);
  EXPECT_EQ(decoded->minibatch_size, m.minibatch_size);
  EXPECT_EQ(decoded->train_steps_per_tick, m.train_steps_per_tick);
  EXPECT_EQ(decoded->eval_epsilon, m.eval_epsilon);
  EXPECT_EQ(decoded->epsilon_initial, m.epsilon_initial);
  EXPECT_EQ(decoded->epsilon_final, m.epsilon_final);
  EXPECT_EQ(decoded->epsilon_anneal_ticks, m.epsilon_anneal_ticks);
  EXPECT_EQ(decoded->epsilon_bump_value, m.epsilon_bump_value);
  EXPECT_EQ(decoded->epsilon_bump_ticks, m.epsilon_bump_ticks);
  EXPECT_EQ(decoded->ticks_per_observation, m.ticks_per_observation);
  EXPECT_EQ(decoded->missing_tolerance, m.missing_tolerance);
  EXPECT_EQ(decoded->max_ticks_retained, m.max_ticks_retained);
  EXPECT_EQ(decoded->initial_weights_fingerprint,
            m.initial_weights_fingerprint);
}

TEST(TraceMeta, DecodeRejectsBadMagicAndTruncation) {
  TraceMeta m;
  auto blob = m.encode();
  auto bad = blob;
  bad[0] ^= 0xff;
  EXPECT_FALSE(TraceMeta::decode(bad).has_value());
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, blob.size() - 1}) {
    std::vector<std::uint8_t> truncated(blob.begin(),
                                        blob.begin() + static_cast<long>(cut));
    EXPECT_FALSE(TraceMeta::decode(truncated).has_value()) << cut;
  }
}

}  // namespace
}  // namespace capes::capture
