#pragma once
// Little-endian binary (de)serialization helpers for model checkpoints and
// control-plane payloads. All multi-byte integers are written
// little-endian regardless of host order so checkpoints are portable.

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace capes::util {

/// Appends primitives to a growable byte buffer.
class BinaryWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f32(float v);
  void put_f64(double v);
  /// Length-prefixed (u32) string.
  void put_string(const std::string& s);
  /// Length-prefixed (u64) vector of f32.
  void put_f32_vector(const std::vector<float>& v);
  void put_raw(const void* data, std::size_t size);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Cursor-based reader; every getter returns nullopt/false on truncation.
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<std::uint8_t>& buf)
      : BinaryReader(buf.data(), buf.size()) {}

  std::optional<std::uint8_t> get_u8();
  std::optional<std::uint16_t> get_u16();
  std::optional<std::uint32_t> get_u32();
  std::optional<std::uint64_t> get_u64();
  std::optional<std::int64_t> get_i64();
  std::optional<float> get_f32();
  std::optional<double> get_f64();
  std::optional<std::string> get_string();
  std::optional<std::vector<float>> get_f32_vector();
  bool get_raw(void* dst, std::size_t size);

  bool at_end() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Write a whole buffer to a file atomically-ish (write then rename is the
/// caller's concern; this is a plain overwrite). Returns false on I/O error.
bool write_file(const std::string& path, const std::vector<std::uint8_t>& data);

/// Read a whole file; nullopt if it cannot be opened.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

}  // namespace capes::util
