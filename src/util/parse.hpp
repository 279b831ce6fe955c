#pragma once
// Strict, whole-string numeric parsing. The std::atoll/std::atof family
// silently turns garbage into 0, which is how "--train-ticks=abc" used to
// become a zero-tick run; these helpers succeed only when the entire input
// is a valid number and report failure instead of guessing.

#include <cstdint>
#include <string>
#include <string_view>

namespace capes::util {

/// Parse a signed decimal integer. Returns false (leaving *out untouched)
/// unless the whole of `text` is a valid in-range number.
bool parse_i64(std::string_view text, std::int64_t* out);

/// Parse an unsigned decimal integer. Rejects leading '-'.
bool parse_u64(std::string_view text, std::uint64_t* out);

/// Parse a decimal floating-point number (no inf/nan/hex).
bool parse_double(std::string_view text, double* out);

/// Parse a boolean: true/false, 1/0, yes/no or on/off, in any case.
bool parse_bool(std::string_view text, bool* out);

/// Split a "--name=value" command-line argument: when `arg` starts with
/// `name` immediately followed by '=', store the value part in *out and
/// return true. Shared by the CLI driver and the bench binaries.
bool parse_flag(const char* arg, const char* name, std::string* out);

}  // namespace capes::util
