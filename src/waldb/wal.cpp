#include "waldb/wal.hpp"

#include <cstdio>
#include <filesystem>

#include "util/crc32.hpp"
#include "util/serialize.hpp"

namespace capes::waldb {

namespace {

std::uint32_t wal_crc(const WalRecord& r) {
  std::uint32_t crc = util::crc32(&r.table_id, sizeof(r.table_id));
  crc = util::crc32_update(crc, &r.key, sizeof(r.key));
  if (!r.payload.empty()) {
    crc = util::crc32_update(crc, r.payload.data(), r.payload.size());
  }
  return crc;
}

}  // namespace

WriteAheadLog::~WriteAheadLog() { close(); }

bool WriteAheadLog::open(const std::string& path) {
  close();
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) return false;
  path_ = path;
  std::error_code ec;
  const auto sz = std::filesystem::file_size(path, ec);
  written_ = ec ? 0 : sz;
  return true;
}

void WriteAheadLog::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool WriteAheadLog::append(const WalRecord& record) {
  if (file_ == nullptr) return false;
  util::BinaryWriter w;
  w.put_u32(static_cast<std::uint32_t>(record.payload.size()));
  w.put_u32(wal_crc(record));
  w.put_u32(record.table_id);
  w.put_i64(record.key);
  w.put_raw(record.payload.data(), record.payload.size());
  const auto& buf = w.buffer();
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) return false;
  written_ += buf.size();
  return true;
}

bool WriteAheadLog::flush() {
  return file_ != nullptr && std::fflush(file_) == 0;
}

std::uint64_t WriteAheadLog::size_bytes() const { return written_; }

bool WriteAheadLog::reset() {
  if (file_ == nullptr) return false;
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");
  written_ = 0;
  if (file_ == nullptr) return false;
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  return file_ != nullptr;
}

namespace {

/// Size the dead region a torn replay left behind. The bytes are
/// untrusted, so the record count comes from walking length prefixes with
/// every stride capped at the region end — an estimate for scrambled
/// data, exact for a clean tail of whole records behind one bad CRC.
WriteAheadLog::ReplayStats tail_stats(const std::vector<std::uint8_t>& data,
                                      std::size_t torn_at) {
  constexpr std::size_t kFixed = 4 + 4 + 4 + 8;  // len + crc + table_id + key
  WriteAheadLog::ReplayStats stats;
  stats.truncated_bytes = data.size() - torn_at;
  std::size_t pos = torn_at;
  while (pos < data.size()) {
    ++stats.truncated_records;
    if (data.size() - pos < kFixed) break;
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) len = (len << 8) | data[pos + i];
    const std::size_t stride = kFixed + len;
    if (stride > data.size() - pos) break;
    pos += stride;
  }
  return stats;
}

}  // namespace

std::optional<std::size_t> WriteAheadLog::replay(
    const std::string& path, const std::function<void(const WalRecord&)>& fn,
    ReplayStats* stats) {
  if (stats != nullptr) *stats = {};
  if (!std::filesystem::exists(path)) return 0;
  auto data = util::read_file(path);
  if (!data) return std::nullopt;
  util::BinaryReader r(*data);
  std::size_t count = 0;
  while (!r.at_end()) {
    const std::size_t record_start = data->size() - r.remaining();
    auto len = r.get_u32();
    auto crc = r.get_u32();
    auto table_id = r.get_u32();
    auto key = r.get_i64();
    WalRecord rec;
    bool valid = len && crc && table_id.has_value() && key;
    if (valid) {
      rec.table_id = *table_id;
      rec.key = *key;
      rec.payload.resize(*len);
      valid = r.get_raw(rec.payload.data(), rec.payload.size()) &&
              wal_crc(rec) == *crc;
    }
    if (!valid) {
      // Torn/corrupt tail: stop here, surface what was lost.
      if (stats != nullptr) *stats = tail_stats(*data, record_start);
      break;
    }
    fn(rec);
    ++count;
  }
  return count;
}

}  // namespace capes::waldb
