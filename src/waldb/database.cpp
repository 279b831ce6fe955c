#include "waldb/database.hpp"

#include <filesystem>

#include "util/logging.hpp"

namespace capes::waldb {

namespace {
// Version 1 used this magic too, so an old snapshot is named as such.
constexpr std::uint32_t kSnapshotMagic = 0x53504e43u;  // "CNPS"

/// The frame `type` of each record (see database.hpp).
enum RecordType : std::uint8_t { kTable = 1, kRow = 2, kSnapshotEnd = 3 };

std::string snapshot_path(const std::string& dir) { return dir + "/snapshot.db"; }
std::string wal_path(const std::string& dir) { return dir + "/wal.log"; }

const std::uint8_t* bytes_of(const std::string& s) {
  return reinterpret_cast<const std::uint8_t*>(s.data());
}
}  // namespace

Database Database::in_memory() { return Database(); }

bool Database::open(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  dir_ = dir;

  tables_.clear();
  const std::string wal = wal_path(dir);
  const bool snapshot_ok = !std::filesystem::exists(snapshot_path(dir)) ||
                           load_snapshot_locked(snapshot_path(dir));
  const auto replayed =
      snapshot_ok ? WriteAheadLog::replay(
                        wal, [this](const net::Frame& f) { apply_locked(f); },
                        &wal_recovery_stats_)
                  : std::nullopt;
  if (!replayed) {
    tables_.clear();
    return false;
  }
  if (wal_recovery_stats_.truncated_records > 0) {
    const auto& cut = wal_recovery_stats_;
    CAPES_LOG_WARN("waldb")
        << "WAL recovery truncated " << cut.truncated_records << " record(s) ("
        << cut.truncated_bytes << " bytes) after a torn/corrupt tail in " << wal
        << "; replayed " << *replayed << " valid record(s)";
    // Cut the dead tail off, or the records appended from now on would
    // sit behind it and be lost at the next recovery.
    const auto size = std::filesystem::file_size(wal, ec);
    if (!ec) std::filesystem::resize_file(wal, size - cut.truncated_bytes, ec);
    if (ec) return false;
  }
  if (!wal_.open(wal)) return false;
  durable_ = true;
  return true;
}

void Database::apply_locked(const net::Frame& record) {
  // Table ids are dense: a table frame registers the next id, a row frame
  // names a registered one, and any other record is skipped.
  if (record.type == kTable && record.topic == tables_.size()) {
    tables_.push_back(std::make_unique<Table>(
        static_cast<std::uint32_t>(record.topic),
        std::string(record.payload.begin(), record.payload.end())));
  } else if (record.type == kRow && record.topic < tables_.size()) {
    tables_[record.topic]->put(record.tick, record.payload);
  }
}

Table* Database::table(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return table_locked(name);
}

Table* Database::table_locked(const std::string& name) {
  for (auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  const auto id = static_cast<std::uint32_t>(tables_.size());
  tables_.push_back(std::make_unique<Table>(id, name));
  Table* t = tables_.back().get();
  if (durable_) wal_.append(kTable, 0, id, bytes_of(name), name.size());
  return t;
}

const Table* Database::find_table(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

bool Database::put(const std::string& table_name, std::int64_t key,
                   std::vector<std::uint8_t> value) {
  std::lock_guard<std::mutex> lock(mu_);
  Table* t = table_locked(table_name);
  if (durable_ &&
      !wal_.append(kRow, key, t->id(), value.data(), value.size())) {
    return false;
  }
  t->put(key, std::move(value));
  return true;
}

std::optional<std::vector<std::uint8_t>> Database::get(
    const std::string& table_name, std::int64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tables_) {
    if (t->name() == table_name) return t->get(key);
  }
  return std::nullopt;
}

bool Database::write_snapshot_locked(const std::string& path) const {
  // A snapshot is written like a log under its own magic; reset() drops
  // what a failed checkpoint may have left at `path`.
  WriteAheadLog out;
  bool ok = out.open(path, kSnapshotMagic) && out.reset();
  std::int64_t rows = 0;
  for (const auto& t : tables_) {
    ok = ok && out.append(kTable, 0, t->id(), bytes_of(t->name()),
                          t->name().size());
    for (const auto& [key, value] : t->rows()) {
      ok = ok && out.append(kRow, key, t->id(), value.data(), value.size());
      ++rows;
    }
  }
  return ok && out.append(kSnapshotEnd, rows, 0, nullptr, 0) && out.flush();
}

bool Database::load_snapshot_locked(const std::string& path) {
  // Whole: the last valid frame is an end frame counting every row before
  // it (bytes after it that are no frame cannot add to the snapshot).
  std::int64_t rows = 0;
  bool whole = false;
  const auto frames =
      read_frames(path, kSnapshotMagic, [&](const net::Frame& f) {
        whole = f.type == kSnapshotEnd && f.tick == rows;
        rows += f.type == kRow ? 1 : 0;
        apply_locked(f);
      });
  if (!frames) return false;
  if (!whole) {
    CAPES_LOG_WARN("waldb") << "snapshot corrupt, starting empty: " << path;
    tables_.clear();
  }
  return true;
}

bool Database::checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!durable_) return false;
  const std::string tmp = snapshot_path(dir_) + ".tmp";
  if (!write_snapshot_locked(tmp)) return false;
  std::error_code ec;
  std::filesystem::rename(tmp, snapshot_path(dir_), ec);
  if (ec) return false;
  return wal_.reset();
}

bool Database::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return !durable_ || wal_.flush();
}

std::uint64_t Database::disk_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!durable_) return 0;
  std::uint64_t total = wal_.size_bytes();
  std::error_code ec;
  const auto snap = std::filesystem::file_size(snapshot_path(dir_), ec);
  if (!ec) total += snap;
  return total;
}

std::size_t Database::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& t : tables_) total += t->memory_bytes();
  return total;
}

std::size_t Database::table_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

}  // namespace capes::waldb
