#include "waldb/wal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

namespace capes::waldb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("capes_wal_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "wal.log").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

net::Frame make_record(std::uint32_t table, std::int64_t key,
                       std::vector<std::uint8_t> payload) {
  net::Frame r;
  r.topic = table;
  r.tick = key;
  r.payload = std::move(payload);
  return r;
}

TEST_F(WalTest, AppendAndReplay) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    ASSERT_TRUE(wal.append(make_record(0, 1, {1, 2, 3})));
    ASSERT_TRUE(wal.append(make_record(1, 2, {4})));
    ASSERT_TRUE(wal.flush());
  }
  std::vector<net::Frame> got;
  auto n = WriteAheadLog::replay(path_, [&](const net::Frame& r) {
    got.push_back(r);
  });
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 2u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].topic, 0u);
  EXPECT_EQ(got[0].tick, 1);
  EXPECT_EQ(got[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(got[1].tick, 2);
}

TEST_F(WalTest, EmptyPayloadAllowed) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    ASSERT_TRUE(wal.append(make_record(3, -7, {})));
    wal.flush();
  }
  std::size_t count = 0;
  WriteAheadLog::replay(path_, [&](const net::Frame& r) {
    EXPECT_EQ(r.tick, -7);
    EXPECT_TRUE(r.payload.empty());
    ++count;
  });
  EXPECT_EQ(count, 1u);
}

TEST_F(WalTest, MissingFileReplaysZero) {
  auto n = WriteAheadLog::replay((dir_ / "nope.log").string(),
                                 [](const net::Frame&) { FAIL(); });
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 0u);
}

TEST_F(WalTest, TornTailDropped) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    ASSERT_TRUE(wal.append(make_record(0, 1, {9, 9})));
    ASSERT_TRUE(wal.append(make_record(0, 2, {8, 8})));
    wal.flush();
  }
  // Truncate mid-record (simulate a crash during the last append).
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 3);
  std::vector<std::int64_t> keys;
  auto n = WriteAheadLog::replay(path_, [&](const net::Frame& r) {
    keys.push_back(r.tick);
  });
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1u);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], 1);
}

TEST_F(WalTest, TornTailSurfacesStats) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    ASSERT_TRUE(wal.append(make_record(0, 1, {9, 9})));
    ASSERT_TRUE(wal.append(make_record(0, 2, {8, 8, 8})));
    wal.flush();
  }
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 3);
  WriteAheadLog::ReplayStats stats;
  auto n = WriteAheadLog::replay(path_, [](const net::Frame&) {}, &stats);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(stats.truncated_records, 1u);
  // record 2 = fixed bytes + 3 payload, minus the 3 torn off the end.
  EXPECT_EQ(stats.truncated_bytes, net::kFrameFixedBytes);
}

TEST_F(WalTest, CleanReplayReportsZeroStats) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    ASSERT_TRUE(wal.append(make_record(0, 1, {1})));
    wal.flush();
  }
  WriteAheadLog::ReplayStats stats;
  stats.truncated_records = 99;  // must be reset even when nothing is torn
  auto n = WriteAheadLog::replay(path_, [](const net::Frame&) {}, &stats);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(stats.truncated_records, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST_F(WalTest, MidFileCorruptionCountsAllDroppedRecords) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(wal.append(make_record(0, i, {1, 2})));
    }
    wal.flush();
  }
  // Corrupt the second record's payload: records 2..4 are all discarded
  // (replay cannot trust frame boundaries past a bad CRC).
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    const auto one = net::kFrameFixedBytes + 2;  // fixed header + payload
    f.seekp(one + net::kFrameFixedBytes, std::ios::beg);
    f.put('\x7f');
  }
  WriteAheadLog::ReplayStats stats;
  auto n = WriteAheadLog::replay(path_, [](const net::Frame&) {}, &stats);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(stats.truncated_records, 3u);
  EXPECT_EQ(stats.truncated_bytes, 3u * (net::kFrameFixedBytes + 2));
}

TEST_F(WalTest, CorruptedPayloadDetected) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    ASSERT_TRUE(wal.append(make_record(0, 1, {1, 2, 3, 4, 5})));
    wal.flush();
  }
  // Flip one payload byte in the middle of the file.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    char c;
    f.seekg(-2, std::ios::end);
    f.get(c);
    f.seekp(-2, std::ios::end);
    f.put(static_cast<char>(c ^ 0xFF));
  }
  auto n = WriteAheadLog::replay(path_, [&](const net::Frame&) {});
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 0u);
}

TEST_F(WalTest, ReopenAppends) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    ASSERT_TRUE(wal.append(make_record(0, 1, {1})));
  }
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    EXPECT_GT(wal.size_bytes(), 0u);
    ASSERT_TRUE(wal.append(make_record(0, 2, {2})));
  }
  std::size_t count = 0;
  WriteAheadLog::replay(path_, [&](const net::Frame&) { ++count; });
  EXPECT_EQ(count, 2u);
}

TEST_F(WalTest, ResetTruncates) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.open(path_));
  ASSERT_TRUE(wal.append(make_record(0, 1, {1, 2, 3})));
  wal.flush();
  EXPECT_GT(wal.size_bytes(), 0u);
  ASSERT_TRUE(wal.reset());
  EXPECT_EQ(wal.size_bytes(), 0u);
  wal.close();
  std::size_t count = 0;
  WriteAheadLog::replay(path_, [&](const net::Frame&) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST_F(WalTest, SizeTracksWrites) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.open(path_));
  const auto s0 = wal.size_bytes();
  ASSERT_TRUE(wal.append(make_record(0, 1, std::vector<std::uint8_t>(100, 7))));
  EXPECT_GE(wal.size_bytes(), s0 + 100);
}

TEST_F(WalTest, AppendWithoutOpenFails) {
  WriteAheadLog wal;
  EXPECT_FALSE(wal.append(make_record(0, 1, {1})));
  EXPECT_FALSE(wal.is_open());
}

TEST_F(WalTest, ManyRecordsRoundTrip) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path_));
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(wal.append(make_record(static_cast<std::uint32_t>(i % 3), i,
                                         {static_cast<std::uint8_t>(i & 0xff)})));
    }
  }
  std::int64_t expected = 0;
  auto n = WriteAheadLog::replay(path_, [&](const net::Frame& r) {
    EXPECT_EQ(r.tick, expected);
    EXPECT_EQ(r.topic, static_cast<std::uint32_t>(expected % 3));
    ++expected;
  });
  EXPECT_EQ(*n, 500u);
}

}  // namespace
}  // namespace capes::waldb
