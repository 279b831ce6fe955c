#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

namespace capes::util {
namespace {

TEST(Serialize, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f32(3.25f);
  w.put_f64(-1e300);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_f32(), 3.25f);
  EXPECT_EQ(r.get_f64(), -1e300);
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, LittleEndianLayout) {
  BinaryWriter w;
  w.put_u32(0x01020304);
  const auto& b = w.buffer();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[3], 0x01);
}

TEST(Serialize, FloatSpecialValues) {
  BinaryWriter w;
  w.put_f32(std::numeric_limits<float>::infinity());
  w.put_f32(-0.0f);
  w.put_f64(std::numeric_limits<double>::quiet_NaN());
  BinaryReader r(w.buffer());
  EXPECT_TRUE(std::isinf(*r.get_f32()));
  EXPECT_EQ(*r.get_f32(), 0.0f);
  EXPECT_TRUE(std::isnan(*r.get_f64()));
}

TEST(Serialize, StringRoundTrip) {
  BinaryWriter w;
  w.put_string("");
  w.put_string("hello world");
  std::string binary("\x00\x01\x02", 3);
  w.put_string(binary);
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.get_string(), "");
  EXPECT_EQ(*r.get_string(), "hello world");
  EXPECT_EQ(*r.get_string(), binary);
}

TEST(Serialize, F32VectorRoundTrip) {
  BinaryWriter w;
  w.put_f32_vector({1.0f, -2.5f, 0.0f});
  w.put_f32_vector({});
  BinaryReader r(w.buffer());
  auto v = r.get_f32_vector();
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->size(), 3u);
  EXPECT_EQ((*v)[1], -2.5f);
  auto empty = r.get_f32_vector();
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(Serialize, TruncationReturnsNullopt) {
  BinaryWriter w;
  w.put_u64(1);
  std::vector<std::uint8_t> buf = w.take();
  buf.pop_back();
  BinaryReader r(buf);
  EXPECT_FALSE(r.get_u64().has_value());
}

TEST(Serialize, TruncatedStringFails) {
  BinaryWriter w;
  w.put_u32(100);  // claims a 100-byte string
  w.put_raw("abc", 3);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.get_string().has_value());
}

TEST(Serialize, TruncatedVectorFails) {
  BinaryWriter w;
  w.put_u64(1000);  // claims 1000 floats
  w.put_f32(1.0f);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.get_f32_vector().has_value());
}

TEST(Serialize, ForgedVectorCountCannotWrapPastTheCheck) {
  // 4 * (2^62 + 1) wraps to 4 in u64, which a multiplying check accepts.
  BinaryWriter w;
  w.put_u64((std::uint64_t{1} << 62) + 1);
  w.put_f32(1.0f);
  w.put_f32(2.0f);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.get_f32_vector().has_value());
}

TEST(Serialize, RawBytes) {
  BinaryWriter w;
  const std::uint8_t data[] = {9, 8, 7};
  w.put_raw(data, 3);
  BinaryReader r(w.buffer());
  std::uint8_t out[3];
  ASSERT_TRUE(r.get_raw(out, 3));
  EXPECT_EQ(out[1], 8);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "capes_ser_test.bin").string();
  std::vector<std::uint8_t> data{1, 2, 3, 255, 0};
  ASSERT_TRUE(write_file(path, data));
  auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
  std::remove(path.c_str());
}

TEST(Serialize, EmptyFileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "capes_ser_empty.bin").string();
  ASSERT_TRUE(write_file(path, {}));
  auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
  std::remove(path.c_str());
}

TEST(Serialize, ReadMissingFileFails) {
  EXPECT_FALSE(read_file("/nonexistent/capes.bin").has_value());
}

}  // namespace
}  // namespace capes::util
