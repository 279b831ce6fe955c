#pragma once
// CRC-32 (IEEE 802.3 polynomial, reflected) used by net's frame codec to
// detect torn or corrupted records on sockets and in files.

#include <cstddef>
#include <cstdint>

namespace capes::util {

/// One-shot CRC-32 of a buffer (initial value 0).
std::uint32_t crc32(const void* data, std::size_t size);

/// Incremental form: feed the previous return value back as `seed`.
std::uint32_t crc32_update(std::uint32_t seed, const void* data, std::size_t size);

}  // namespace capes::util
