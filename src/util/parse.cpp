#include "util/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

namespace capes::util {

// Implemented over the strtoX family rather than std::from_chars: the
// float overloads of from_chars are missing from some libstdc++ releases
// this project still supports. strtoX with explicit end-pointer and errno
// checks gives the same whole-string guarantee.

namespace {

bool whole_string(const std::string& s, const char* end) {
  return !s.empty() && end == s.c_str() + s.size();
}

// The strtoX family skips leading whitespace; a flag value with spaces in
// it should be an error, not a number.
bool leading_space(const std::string& s) {
  return !s.empty() && std::isspace(static_cast<unsigned char>(s[0]));
}

}  // namespace

bool parse_i64(std::string_view text, std::int64_t* out) {
  const std::string s(text);
  if (leading_space(s)) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || !whole_string(s, end)) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  const std::string s(text);
  if (leading_space(s)) return false;
  if (!s.empty() && s[0] == '-') return false;  // strtoull accepts negatives
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || !whole_string(s, end)) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double(std::string_view text, double* out) {
  const std::string s(text);
  // Reject inf/nan/hex spellings: flags and workload specs only ever carry
  // plain decimal numbers, and a stray "0x1" should be an error.
  for (const char c : s) {
    const bool decimal = (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                         c == '+' || c == 'e' || c == 'E';
    if (!decimal) return false;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno == ERANGE || !whole_string(s, end)) return false;
  *out = v;
  return true;
}

bool parse_bool(std::string_view text, bool* out) {
  std::string v(text);
  for (char& c : v) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  const bool yes = v == "true" || v == "1" || v == "yes" || v == "on";
  if (!yes && v != "false" && v != "0" && v != "no" && v != "off") return false;
  *out = yes;
  return true;
}

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace capes::util
