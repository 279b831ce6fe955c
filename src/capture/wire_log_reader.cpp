#include "capture/wire_log_reader.hpp"

#include "util/frame.hpp"

namespace capes::capture {

namespace {

/// File header: magic + version + dropped_records + meta_len.
constexpr std::size_t kHeaderFixedBytes = 20;

}  // namespace

bool WireLogReader::open(const std::string& path, std::string* error) {
  *this = WireLogReader();
  const auto fail = [&](const std::string& what) {
    file_.reset();
    if (error) *error = what + path;
    return false;
  };
  file_.reset(std::fopen(path.c_str(), "rb"));
  const long size = file_ && std::fseek(file_.get(), 0, SEEK_END) == 0
                        ? std::ftell(file_.get())
                        : -1;
  if (size < 0 || std::fseek(file_.get(), 0, SEEK_SET) != 0) {
    return fail("cannot read capture file ");
  }

  std::uint8_t header[kHeaderFixedBytes];
  if (std::fread(header, 1, sizeof(header), file_.get()) != sizeof(header)) {
    return fail("capture file too short for header: ");
  }
  if (util::get_le32(header) != kWireMagic) {
    return fail("not a capture file (bad magic): ");
  }
  const std::uint32_t version = util::get_le32(header + 4);
  if (version != kWireVersion) {
    return fail("unsupported capture version " + std::to_string(version) +
                ": ");
  }
  dropped_records_ = util::get_le64(header + kDroppedRecordsOffset);
  const std::uint32_t meta_len = util::get_le32(header + 16);
  // Checked against the file before anything is sized from it.
  if (static_cast<std::uint64_t>(size) - kHeaderFixedBytes < meta_len) {
    return fail("capture meta truncated: ");
  }
  meta_.resize(meta_len);
  if (meta_len > 0 &&
      std::fread(meta_.data(), 1, meta_len, file_.get()) != meta_len) {
    return fail("cannot read capture meta: ");
  }
  frames_ = net::FrameFileReader(file_.get(), net::kMaxFramePayload);
  return true;
}

}  // namespace capes::capture
