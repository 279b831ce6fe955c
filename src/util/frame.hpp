#pragma once
// Little-endian field helpers shared by every length-prefixed format in
// the tree: net's frame codec (tcp frames, and the records of capture,
// WAL and snapshot files) and the file headers in front of those records.
// One encoding implementation, not one per subsystem.

#include <cstdint>

namespace capes::util {

void put_le32(std::uint8_t* out, std::uint32_t v);
void put_le64(std::uint8_t* out, std::uint64_t v);
void put_le_f64(std::uint8_t* out, double v);

std::uint32_t get_le32(const std::uint8_t* p);
std::uint64_t get_le64(const std::uint8_t* p);
double get_le_f64(const std::uint8_t* p);

}  // namespace capes::util
