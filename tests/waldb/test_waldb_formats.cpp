// The waldb file formats: pinned bytes of the WAL and the snapshot,
// refusal of the version-1 formats, torn-tail recovery, seeded mutations
// of valid files, write failures, records above the tcp frame bound, and
// the heap the WAL reader holds.

#include <gtest/gtest.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "util/frame.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"
#include "waldb/database.hpp"
#include "waldb/wal.hpp"

namespace capes::waldb {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::string to_hex(const Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Bytes read_bytes(const std::string& path) {
  auto data = util::read_file(path);
  return data ? *data : Bytes{};
}

/// Capture the logger's output in a temp file.
class LogCapture {
 public:
  LogCapture() : file_(std::tmpfile()) {
    util::Logger::instance().set_sink(file_);
  }
  ~LogCapture() {
    util::Logger::instance().set_sink(nullptr);
    std::fclose(file_);
  }
  std::string text() {
    util::Logger::instance().flush();
    std::fflush(file_);
    std::rewind(file_);
    std::string out;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), file_) != nullptr) out += buf;
    return out;
  }

 private:
  std::FILE* file_;
};

class WaldbFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("capes_waldb_fmt_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    dir_ = (root_ / "db").string();
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string wal() const { return dir_ + "/wal.log"; }
  std::string snapshot() const { return dir_ + "/snapshot.db"; }

  std::filesystem::path root_;
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Pinned bytes. Any change to these breaks every WAL or snapshot on disk.

TEST_F(WaldbFormatTest, WalBytesArePinned) {
  {
    Database db;
    ASSERT_TRUE(db.open(dir_));
    ASSERT_TRUE(db.put("t", 7, {1, 2, 3}));
    ASSERT_TRUE(db.flush());
  }
  EXPECT_EQ(to_hex(read_bytes(wal())),
            // Header ("CWAL", version 2), then each frame from the start of
            // a line: the table frame (type 1, topic = id 0, payload "t"),
            // then the row frame (type 2, tick = key 7, payload 010203).
            "4357414c02000000"
            "0100000080ad991f010000000000000000000000000000000000000000000000"
            "0074"
            "030000005a9233fb020700000000000000000000000000000000000000000000"
            "00010203");

  // The records are exactly what net::encode_frame makes: one codec.
  Bytes frames;
  const std::uint8_t name = 't';
  const std::uint8_t value[3] = {1, 2, 3};
  net::encode_frame(1, 0, 0, 0, &name, 1, &frames);
  net::encode_frame(2, 7, 0, 0, value, 3, &frames);
  const Bytes bytes = read_bytes(wal());
  ASSERT_EQ(bytes.size(), 8 + frames.size());
  EXPECT_EQ(Bytes(bytes.begin() + 8, bytes.end()), frames);
}

TEST_F(WaldbFormatTest, SnapshotBytesArePinned) {
  {
    Database db;
    ASSERT_TRUE(db.open(dir_));
    ASSERT_TRUE(db.put("t", 7, {1, 2, 3}));
    ASSERT_TRUE(db.checkpoint());
  }
  EXPECT_EQ(read_bytes(wal()).size(), 0u);
  EXPECT_EQ(to_hex(read_bytes(snapshot())),
            // Header ("CNPS", version 2), the table frame, the row frame,
            // then the end frame (type 3, tick = 1 row).
            "434e505302000000"
            "0100000080ad991f010000000000000000000000000000000000000000000000"
            "0074"
            "030000005a9233fb020700000000000000000000000000000000000000000000"
            "00010203"
            "00000000fbdd075d030100000000000000000000000000000000000000000000"
            "00");
}

// ---------------------------------------------------------------------------
// Version-1 files (the formats before frames) are refused, named, and left
// byte-identical. These bytes are what the version-1 code wrote for one
// put("t", 7, {1, 2, 3}): a WAL, and a snapshot after checkpoint().

const char kV1Wal[] =
    // [len][crc][table_id 0xffffffff: a registration][key 0]["t"]
    "01000000da4a97a8ffffffff000000000000000074"
    // [len][crc][table_id 0][key 7][010203]
    "030000006b4f155400000000070000000000000001" "0203";
const char kV1Snapshot[] =
    "434e5053010000000100000001000000740100000000000000070000000000000003"
    "00000001020386164058";

TEST_F(WaldbFormatTest, VersionOneWalIsRefusedAndLeftAsIs) {
  std::filesystem::create_directories(dir_);
  const Bytes legacy = from_hex(kV1Wal);
  ASSERT_TRUE(util::write_file(wal(), legacy));
  LogCapture log;
  {
    Database db;
    EXPECT_FALSE(db.open(dir_));
    EXPECT_FALSE(db.is_durable());
    EXPECT_EQ(db.table_count(), 0u);
  }
  const std::string text = log.text();
  EXPECT_NE(text.find(wal()), std::string::npos) << text;
  EXPECT_NE(text.find("version-1 WAL"), std::string::npos) << text;
  EXPECT_EQ(read_bytes(wal()), legacy);
  EXPECT_FALSE(std::filesystem::exists(snapshot()));
}

TEST_F(WaldbFormatTest, VersionOneSnapshotIsRefusedAndLeftAsIs) {
  std::filesystem::create_directories(dir_);
  const Bytes legacy = from_hex(kV1Snapshot);
  ASSERT_TRUE(util::write_file(snapshot(), legacy));
  LogCapture log;
  {
    Database db;
    EXPECT_FALSE(db.open(dir_));
    EXPECT_FALSE(db.is_durable());
    EXPECT_EQ(db.table_count(), 0u);
  }
  const std::string text = log.text();
  EXPECT_NE(text.find(snapshot()), std::string::npos) << text;
  EXPECT_NE(text.find("(version 1)"), std::string::npos) << text;
  EXPECT_EQ(read_bytes(snapshot()), legacy);
  EXPECT_FALSE(std::filesystem::exists(wal()));
}

// ---------------------------------------------------------------------------
// Torn tails.

TEST_F(WaldbFormatTest, RecordsAppendedAfterATornTailSurviveTheNextRecovery) {
  {
    Database db;
    ASSERT_TRUE(db.open(dir_));
    ASSERT_TRUE(db.put("t", 1, {1}));
    ASSERT_TRUE(db.put("t", 2, {2}));
    ASSERT_TRUE(db.flush());
  }
  std::filesystem::resize_file(wal(), std::filesystem::file_size(wal()) - 2);
  {
    Database db;
    ASSERT_TRUE(db.open(dir_));
    EXPECT_EQ(db.wal_recovery_stats().truncated_records, 1u);
    ASSERT_TRUE(db.put("t", 3, {3}));
    ASSERT_TRUE(db.flush());
  }
  Database db;
  ASSERT_TRUE(db.open(dir_));
  EXPECT_EQ(db.wal_recovery_stats().truncated_records, 0u);
  EXPECT_EQ(db.get("t", 1), Bytes{1});
  EXPECT_FALSE(db.get("t", 2).has_value());
  EXPECT_EQ(db.get("t", 3), Bytes{3});
}

TEST_F(WaldbFormatTest, WalTornInsideItsHeaderOpensEmptyAndStaysWritable) {
  std::filesystem::create_directories(dir_);
  ASSERT_TRUE(util::write_file(wal(), {0x43, 0x57, 0x41}));  // "CWA"
  {
    Database db;
    ASSERT_TRUE(db.open(dir_));
    EXPECT_EQ(db.wal_recovery_stats().truncated_bytes, 3u);
    ASSERT_TRUE(db.put("t", 1, {9}));
    ASSERT_TRUE(db.flush());
  }
  Database db;
  ASSERT_TRUE(db.open(dir_));
  EXPECT_EQ(db.get("t", 1), Bytes{9});
}

TEST_F(WaldbFormatTest, RecordsNamingAnUnregisteredTableAreSkipped) {
  std::filesystem::create_directories(dir_);
  {
    WriteAheadLog log;
    ASSERT_TRUE(log.open(wal()));
    const std::uint8_t value = 'x';
    // Valid-CRC frames naming table 2^32 - 1: a registration that skips
    // ids, and a row for a table never registered.
    ASSERT_TRUE(log.append(1, 0, 0xffffffffu, &value, 1));
    ASSERT_TRUE(log.append(2, 5, 0xffffffffu, &value, 1));
    ASSERT_TRUE(log.flush());
  }
  Database db;
  ASSERT_TRUE(db.open(dir_));
  EXPECT_EQ(db.table_count(), 0u);
}

// ---------------------------------------------------------------------------
// Seeded mutations of a valid WAL and a valid snapshot: open() never
// crashes or throws, and every row it recovers is a row that was written.

struct Written {
  std::vector<std::string> names;  ///< index == table id
  std::map<std::pair<std::uint32_t, std::int64_t>, Bytes> rows;
};

Written write_seed(const std::string& dir, bool checkpoint) {
  Written w;
  w.names = {"status", "action", "learner"};
  Database db;
  EXPECT_TRUE(db.open(dir));
  for (int i = 0; i < 24; ++i) {
    const auto table = static_cast<std::uint32_t>(i % 3);
    Bytes value(static_cast<std::size_t>((i * 7) % 19),
                static_cast<std::uint8_t>(0x30 + i));
    EXPECT_TRUE(db.put(w.names[table], 100 + i, value));
    w.rows[{table, 100 + i}] = std::move(value);
  }
  EXPECT_TRUE(checkpoint ? db.checkpoint() : db.flush());
  return w;
}

/// Open a database holding `bytes` as `file` and check what it recovers.
/// Returns the number of rows recovered (0 when open() refused).
std::size_t open_mutated(const std::filesystem::path& dir,
                         const std::string& file, const Bytes& bytes,
                         const Written& w, const std::string& what) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(util::write_file((dir / file).string(), bytes));
  Database db;
  bool opened = false;
  EXPECT_NO_THROW(opened = db.open(dir.string())) << what;
  if (!opened) return 0;
  EXPECT_LE(db.table_count(), w.names.size()) << what;
  std::size_t recovered = 0;
  for (std::uint32_t id = 0; id < w.names.size(); ++id) {
    const Table* t = db.find_table(w.names[id]);
    if (t == nullptr) continue;
    EXPECT_EQ(t->id(), id) << what;
    for (const auto& [key, value] : t->rows()) {
      const auto it = w.rows.find({id, key});
      if (it == w.rows.end()) {
        ADD_FAILURE() << what << ": row " << w.names[id] << "/" << key
                      << " was never written";
      } else {
        EXPECT_EQ(value, it->second)
            << what << ": row " << w.names[id] << "/" << key;
      }
      ++recovered;
    }
  }
  return recovered;
}

/// Start offset and type of each frame after the 8-byte file header.
using FrameAt = std::pair<std::size_t, std::uint8_t>;  ///< offset, type

std::vector<FrameAt> frame_offsets(const Bytes& b) {
  std::vector<FrameAt> out;
  for (std::size_t pos = 8; pos + net::kFrameFixedBytes <= b.size();) {
    out.emplace_back(pos, b[pos + 8]);
    pos += net::kFrameFixedBytes + util::get_le32(b.data() + pos);
  }
  return out;
}

/// Every mutation class applied to one pristine file.
void mutate_and_check(const std::filesystem::path& case_dir,
                      const std::string& file, const Bytes& pristine,
                      const Written& w, bool torn_wal_keeps_prefix) {
  const auto frames = frame_offsets(pristine);
  ASSERT_GT(frames.size(), w.rows.size());
  std::mt19937 rng(20260214);

  // Truncation at every byte offset.
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    const std::string what = file + " cut at " + std::to_string(cut);
    const std::size_t got = open_mutated(
        case_dir, file, Bytes(pristine.begin(), pristine.begin() + cut), w,
        what);
    if (torn_wal_keeps_prefix) {
      // A torn WAL recovers exactly the rows wholly before the cut.
      std::size_t whole_rows = 0;
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const std::size_t end =
            i + 1 < frames.size() ? frames[i + 1].first : pristine.size();
        if (end <= cut && frames[i].second == 2) ++whole_rows;
      }
      EXPECT_EQ(got, whole_rows) << what;
    } else {
      EXPECT_EQ(got, 0u) << what << ": a torn snapshot loads nothing";
    }
  }

  // Seeded single-bit flips.
  std::uniform_int_distribution<std::size_t> pos_dist(0, pristine.size() - 1);
  for (int i = 0; i < 400; ++i) {
    Bytes b = pristine;
    const std::size_t pos = pos_dist(rng);
    b[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    open_mutated(case_dir, file, b, w,
                 file + " bit flip at " + std::to_string(pos));
  }

  // Length prefixes forged to 0xFFFFFFFF, one frame at a time.
  for (const auto& [offset, type] : frames) {
    Bytes b = pristine;
    util::put_le32(b.data() + offset, 0xffffffffu);
    open_mutated(case_dir, file, b, w,
                 file + " forged length at " + std::to_string(offset));
  }

  // Reordered frames: each adjacent pair swapped, then seeded shuffles.
  const auto reassemble = [&](const std::vector<std::size_t>& order) {
    Bytes b(pristine.begin(), pristine.begin() + 8);
    for (const std::size_t i : order) {
      const std::size_t end =
          i + 1 < frames.size() ? frames[i + 1].first : pristine.size();
      b.insert(b.end(),
               pristine.begin() + static_cast<std::ptrdiff_t>(frames[i].first),
               pristine.begin() + static_cast<std::ptrdiff_t>(end));
    }
    return b;
  };
  std::vector<std::size_t> order(frames.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    std::vector<std::size_t> swapped = order;
    std::swap(swapped[i], swapped[i + 1]);
    open_mutated(case_dir, file, reassemble(swapped), w,
                 file + " frames " + std::to_string(i) + " and " +
                     std::to_string(i + 1) + " swapped");
  }
  for (int i = 0; i < 20; ++i) {
    std::vector<std::size_t> shuffled = order;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    open_mutated(case_dir, file, reassemble(shuffled), w,
                 file + " shuffle " + std::to_string(i));
  }
}

TEST_F(WaldbFormatTest, MutatedWalNeverCrashesAndRecoversOnlyWrittenRows) {
  const Written w = write_seed(dir_, /*checkpoint=*/false);
  const Bytes pristine = read_bytes(wal());
  ASSERT_EQ(open_mutated(root_ / "case", "wal.log", pristine, w, "pristine"),
            w.rows.size());
  mutate_and_check(root_ / "case", "wal.log", pristine, w,
                   /*torn_wal_keeps_prefix=*/true);
}

TEST_F(WaldbFormatTest, MutatedSnapshotNeverCrashesAndRecoversOnlyWrittenRows) {
  const Written w = write_seed(dir_, /*checkpoint=*/true);
  const Bytes pristine = read_bytes(snapshot());
  ASSERT_EQ(open_mutated(root_ / "case", "snapshot.db", pristine, w,
                         "pristine"),
            w.rows.size());
  mutate_and_check(root_ / "case", "snapshot.db", pristine, w,
                   /*torn_wal_keeps_prefix=*/false);
}

// ---------------------------------------------------------------------------
// Write failures, large records, reader heap.

TEST(WaldbFailure, FullDeviceFailsTheFlush) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  WriteAheadLog log;
  ASSERT_TRUE(log.open("/dev/full"));
  const Bytes value(100, 7);
  // The append may land in the stdio buffer; the flush must report ENOSPC.
  log.append(2, 1, 0, value.data(), value.size());
  EXPECT_FALSE(log.flush());
}

TEST_F(WaldbFormatTest, PayloadAboveTheTcpBoundRoundTripsWalAndSnapshot) {
  Bytes big(20u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131 + (i >> 16));
  }
  ASSERT_GT(big.size(), net::kMaxFramePayload);
  {
    Database db;
    ASSERT_TRUE(db.open(dir_));
    ASSERT_TRUE(db.put("learner", 0, big));
    ASSERT_TRUE(db.flush());
  }
  {
    Database db;  // WAL replay
    ASSERT_TRUE(db.open(dir_));
    EXPECT_EQ(db.wal_recovery_stats().truncated_records, 0u);
    EXPECT_EQ(db.get("learner", 0), big);
    ASSERT_TRUE(db.checkpoint());
  }
  Database db;  // snapshot load
  ASSERT_TRUE(db.open(dir_));
  EXPECT_EQ(read_bytes(wal()).size(), 0u);
  EXPECT_EQ(db.get("learner", 0), big);
}

#ifdef __GLIBC__
std::ptrdiff_t heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<std::ptrdiff_t>(m.uordblks + m.hblkhd);
}
#endif

// The WAL reader streams: replaying a 64 MB log holds one read chunk plus
// about one record, not the file.
TEST_F(WaldbFormatTest, WalReplayHeapDoesNotGrowWithTheFile) {
#ifndef __GLIBC__
  GTEST_SKIP() << "heap accounting needs glibc's mallinfo2";
#else
  std::filesystem::create_directories(dir_);
  constexpr std::size_t kLargest = 64 * 1024;
  std::size_t records = 0;
  {
    WriteAheadLog log;
    ASSERT_TRUE(log.open(wal()));
    const Bytes payload(kLargest, 0x5a);
    while (log.size_bytes() < (64u << 20)) {
      const std::size_t size = 1024 + (records * 7919) % (kLargest - 1023);
      ASSERT_TRUE(log.append(2, static_cast<std::int64_t>(records), 0,
                             payload.data(), size));
      ++records;
    }
    ASSERT_TRUE(log.flush());
  }
  ASSERT_GE(std::filesystem::file_size(wal()), 64u << 20);
  const std::ptrdiff_t before = heap_in_use();
  std::ptrdiff_t peak = 0;
  std::size_t largest = 0;
  const auto replayed = WriteAheadLog::replay(wal(), [&](const net::Frame& f) {
    largest = std::max(largest, f.payload.size());
    peak = std::max(peak, heap_in_use() - before);
  });
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(*replayed, records);
  EXPECT_LE(largest, kLargest);
  EXPECT_LT(peak, static_cast<std::ptrdiff_t>((1u << 20) + largest));
#endif
}

}  // namespace
}  // namespace capes::waldb
