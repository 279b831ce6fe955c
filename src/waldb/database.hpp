#pragma once
// Embedded database: named tables + write-ahead log + snapshot
// checkpoints. Plays the role SQLite (in WAL mode) played in the paper's
// prototype. Durability model: every put is appended to the WAL; a
// checkpoint() writes a full snapshot and truncates the WAL; open() loads
// the snapshot then replays the WAL tail.
//
// Both are files of net frames (layout: wal.hpp): a table frame (topic =
// table id, payload = name) and a row frame (topic = table id, tick = key,
// payload = value). A snapshot ends with an end frame whose tick is the
// row count, and is valid only whole.
//
// Concurrency: one writer (the Interface Daemon), many readers (the DRL
// Engine); a single mutex keeps the API thread-safe, which matches the
// paper's low-contention design (§3.3).

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "waldb/table.hpp"
#include "waldb/wal.hpp"

namespace capes::waldb {

class Database {
 public:
  Database() = default;

  /// Open the database rooted at directory `dir` (created if missing).
  /// Loads `snapshot.db` if present, then replays `wal.log` and cuts off
  /// its torn tail, if any. False, with both files left as they are, when
  /// either cannot be read or is in another format (logged by name).
  bool open(const std::string& dir);

  /// In-memory only database (no durability); open() not required.
  static Database in_memory();

  /// Get or create a table by name. Pointers remain valid for the lifetime
  /// of the Database.
  Table* table(const std::string& name);
  const Table* find_table(const std::string& name) const;

  /// Durable insert: WAL append (when opened on disk) + in-memory apply.
  bool put(const std::string& table_name, std::int64_t key,
           std::vector<std::uint8_t> value);

  std::optional<std::vector<std::uint8_t>> get(const std::string& table_name,
                                               std::int64_t key) const;

  /// Write a full snapshot and truncate the WAL.
  bool checkpoint();

  /// Flush the WAL file to the OS.
  bool flush();

  /// Total on-disk footprint (snapshot + WAL), in bytes.
  std::uint64_t disk_bytes() const;

  /// Approximate resident memory of all tables.
  std::size_t memory_bytes() const;

  std::size_t table_count() const;

  bool is_durable() const { return durable_; }

  /// What the last open() discarded from a torn/corrupt WAL tail (all
  /// zero after a clean recovery). Surfaced so operators can tell "the
  /// process crashed mid-append, one record lost" from silent data loss.
  const WriteAheadLog::ReplayStats& wal_recovery_stats() const {
    return wal_recovery_stats_;
  }

 private:
  Table* table_locked(const std::string& name);
  void apply_locked(const net::Frame& record);
  bool load_snapshot_locked(const std::string& path);
  bool write_snapshot_locked(const std::string& path) const;

  mutable std::mutex mu_;
  std::string dir_;
  bool durable_ = false;
  WriteAheadLog wal_;
  WriteAheadLog::ReplayStats wal_recovery_stats_;
  std::vector<std::unique_ptr<Table>> tables_;  // index == table id
};

}  // namespace capes::waldb
