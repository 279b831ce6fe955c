#include "waldb/wal.hpp"

#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>

#include "util/frame.hpp"
#include "util/logging.hpp"

namespace capes::waldb {

namespace {

constexpr std::size_t kHeaderBytes = 8;

/// The header of a version-2 file (1 was the format before frames).
void encode_header(std::uint32_t magic, std::uint8_t* out) {
  util::put_le32(out, magic);
  util::put_le32(out + 4, 2);
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

std::optional<std::size_t> read_frames(
    const std::string& path, std::uint32_t magic,
    const std::function<void(const net::Frame&)>& fn,
    net::FrameReadStats* stats) {
  if (stats != nullptr) *stats = {};
  if (!std::filesystem::exists(path)) return 0;
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    CAPES_LOG_WARN("waldb") << "cannot read " << path;
    return std::nullopt;
  }
  std::uint8_t expected[kHeaderBytes];
  encode_header(magic, expected);
  std::uint8_t header[kHeaderBytes];
  const std::size_t got = std::fread(header, 1, sizeof(header), file.get());
  const std::string name(expected, expected + 4);
  if (std::memcmp(header, expected, got) != 0) {
    CAPES_LOG_WARN("waldb")
        << path << " is not a version-2 '" << name
        << "' file of frame records ("
        << (got == kHeaderBytes && util::get_le32(header) == magic
                ? "version " + std::to_string(util::get_le32(header + 4))
                : "no '" + name + "' header, as in a version-1 WAL")
        << "); left as is, not opened";
    return std::nullopt;
  }
  if (got < kHeaderBytes) {  // empty, or torn inside the first write
    if (stats != nullptr && got > 0) *stats = {0, 1, got};
    return 0;
  }
  net::FrameFileReader reader(file.get(),
                              std::numeric_limits<std::uint32_t>::max());
  net::Frame frame;
  while (reader.next(&frame)) fn(frame);
  if (stats != nullptr) *stats = reader.stats();
  return reader.stats().valid_records;
}

bool WriteAheadLog::open(const std::string& path, std::uint32_t magic) {
  close();
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) return false;
  path_ = path;
  magic_ = magic;
  std::error_code ec;
  const auto sz = std::filesystem::file_size(path, ec);
  written_ = ec ? 0 : sz;
  return true;
}

void WriteAheadLog::close() {
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

bool WriteAheadLog::append(const net::Frame& record) {
  return append(record.type, record.tick, record.topic,
                record.payload.data(), record.payload.size());
}

bool WriteAheadLog::append(std::uint8_t type, std::int64_t tick,
                           std::uint64_t topic, const std::uint8_t* payload,
                           std::size_t payload_size) {
  if (file_ == nullptr) return false;
  if (written_ == 0) {
    std::uint8_t header[kHeaderBytes];
    encode_header(magic_, header);
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header)) {
      return false;
    }
    written_ = kHeaderBytes;
  }
  if (!net::write_frame(file_, type, tick, topic, 0, payload, payload_size)) {
    return false;
  }
  written_ += net::kFrameFixedBytes + payload_size;
  return true;
}

bool WriteAheadLog::flush() {
  return file_ != nullptr && std::fflush(file_) == 0;
}

bool WriteAheadLog::reset() {
  if (file_ == nullptr) return false;
  written_ = 0;
  file_ = std::freopen(path_.c_str(), "wb", file_);  // the sole writer
  return file_ != nullptr;
}

}  // namespace capes::waldb
