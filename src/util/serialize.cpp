#include "util/serialize.hpp"

#include <bit>
#include <cstdio>

// std::bit_cast is the only C++20-and-up dependency in this file; a C++17
// toolchain otherwise compiles most of the tree and fails here with a
// confusing "no member bit_cast" error. Fail fast with the real reason.
#ifndef __cpp_lib_bit_cast
#error "capes requires C++20 (std::bit_cast in <bit>); build with -std=c++20 or newer"
#endif

namespace capes::util {

namespace {

template <typename T>
void put_le(std::vector<std::uint8_t>& buf, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

void BinaryWriter::put_u16(std::uint16_t v) { put_le(buf_, v); }
void BinaryWriter::put_u32(std::uint32_t v) { put_le(buf_, v); }
void BinaryWriter::put_u64(std::uint64_t v) { put_le(buf_, v); }

void BinaryWriter::put_f32(float v) { put_u32(std::bit_cast<std::uint32_t>(v)); }
void BinaryWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void BinaryWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_raw(s.data(), s.size());
}

void BinaryWriter::put_f32_vector(const std::vector<float>& v) {
  put_u64(v.size());
  for (float x : v) put_f32(x);
}

void BinaryWriter::put_raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

std::optional<std::uint8_t> BinaryReader::get_u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint16_t> BinaryReader::get_u16() {
  if (remaining() < 2) return std::nullopt;
  std::uint16_t v = 0;
  for (std::size_t i = 0; i < 2; ++i) v |= std::uint16_t{data_[pos_ + i]} << (8 * i);
  pos_ += 2;
  return v;
}

std::optional<std::uint32_t> BinaryReader::get_u32() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> BinaryReader::get_u64() {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
  pos_ += 8;
  return v;
}

std::optional<std::int64_t> BinaryReader::get_i64() {
  auto v = get_u64();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

std::optional<float> BinaryReader::get_f32() {
  auto v = get_u32();
  if (!v) return std::nullopt;
  return std::bit_cast<float>(*v);
}

std::optional<double> BinaryReader::get_f64() {
  auto v = get_u64();
  if (!v) return std::nullopt;
  return std::bit_cast<double>(*v);
}

std::optional<std::string> BinaryReader::get_string() {
  auto n = get_u32();
  if (!n || remaining() < *n) return std::nullopt;
  std::string s(reinterpret_cast<const char*>(data_ + pos_), *n);
  pos_ += *n;
  return s;
}

std::optional<std::vector<float>> BinaryReader::get_f32_vector() {
  auto n = get_u64();
  // Divide, never multiply: a forged count must not wrap past the check.
  if (!n || *n > remaining() / 4) return std::nullopt;
  std::vector<float> v;
  v.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) v.push_back(*get_f32());
  return v;
}

bool BinaryReader::get_raw(void* dst, std::size_t size) {
  if (remaining() < size) return false;
  if (size > 0) std::memcpy(dst, data_ + pos_, size);  // dst may be null at 0
  pos_ += size;
  return true;
}

bool write_file(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  const bool ok = (written == data.size()) && std::fclose(f) == 0;
  if (written != data.size()) std::fclose(f);
  return ok;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size < 0 ? 0 : size));
  const std::size_t got = buf.empty() ? 0 : std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (got != buf.size()) return std::nullopt;
  return buf;
}

}  // namespace capes::util
