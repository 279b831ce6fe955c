#include "util/options.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/parse.hpp"

namespace capes::util {

bool parse_spec_args(const std::string& args, SpecArgs* out, std::string* error) {
  std::size_t pos = 0;
  while (pos <= args.size()) {
    const std::size_t comma = std::min(args.find(',', pos), args.size());
    const std::string token = args.substr(pos, comma - pos);
    const std::size_t eq = token.find('=');
    if (token.empty()) return reject(error, "empty spec argument");
    if (eq == 0) {
      return reject(error, "malformed spec argument '" + token + "'");
    }
    if (eq == std::string::npos) {
      out->positional.push_back(token);
    } else {
      out->named[token.substr(0, eq)] = token.substr(eq + 1);
    }
    pos = comma + 1;
  }
  return true;
}

std::optional<std::size_t> find_name(Names names, std::string_view text) {
  const auto it = std::find(names.begin(), names.end(), text);
  if (it == names.end()) return std::nullopt;
  return static_cast<std::size_t>(it - names.begin());
}

std::string join_names(Names names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += names.size() > 2 ? ", " : " ";
    if (i > 0 && i + 1 == names.size()) out += "or ";
    out += names[i];
  }
  return out;
}

bool reject(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

namespace detail {

namespace {

/// "<key> must be <noun><bounds>, got '<text>'".
bool must_be(std::string* error, const RowSpec& row, std::string noun,
             std::string_view text) {
  const Range& r = row.range;
  char bounds[64] = "";
  if (std::isfinite(r.lo) && std::isfinite(r.hi)) {
    std::snprintf(bounds, sizeof(bounds), " in [%g, %g%c", r.lo, r.hi,
                  r.hi_open ? ')' : ']');
  } else if (std::isfinite(r.lo)) {
    std::snprintf(bounds, sizeof(bounds), " >= %g", r.lo);
  }
  return reject(error, std::string(row.key) + " must be " + noun + bounds +
                           ", got '" + std::string(text) + "'");
}

/// Clamp (conf) or range-check (spec) a parsed number.
template <typename T>
bool fit(T value, const RowSpec& row, bool clamp, const std::string& noun,
         std::string_view text, T* out, std::string* error) {
  const Range& r = row.range;
  const double v = static_cast<double>(value);
  if (clamp) {
    if (v < r.clamp_lo) value = static_cast<T>(r.clamp_lo);
    if (v > r.clamp_hi) value = static_cast<T>(r.clamp_hi);
  } else if (v < r.lo || v > r.hi || (r.hi_open && v == r.hi)) {
    return must_be(error, row, noun, text);
  }
  *out = value;
  return true;
}

}  // namespace

bool parse(std::string_view text, const RowSpec& row, bool clamp,
           std::int64_t* out, std::string* error) {
  if (!row.names.empty()) {
    const auto index = find_name(row.names, text);
    if (!index) return must_be(error, row, join_names(row.names), text);
    *out = static_cast<std::int64_t>(*index);
    return true;
  }
  std::int64_t value = 0;
  if (!parse_i64(text, &value)) return must_be(error, row, "an integer", text);
  return fit(value, row, clamp, "an integer", text, out, error);
}

bool parse(std::string_view text, const RowSpec& row, bool clamp,
           std::uint64_t* out, std::string* error) {
  if (const auto index = find_name(row.names, text)) {
    *out = *index;
    return true;
  }
  std::string noun = std::isfinite(row.range.lo) || std::isfinite(row.range.hi)
                         ? "an integer"
                         : "an unsigned integer";
  if (!row.names.empty()) noun = join_names(row.names) + " or " + noun;
  std::uint64_t value = 0;
  if (parse_u64(text, &value)) {
    return fit(value, row, clamp, noun, text, out, error);
  }
  // A negative conf value clamps to the floor rather than wrapping.
  std::int64_t negative = 0;
  if (!clamp || !parse_i64(text, &negative)) {
    return must_be(error, row, noun, text);
  }
  *out = static_cast<std::uint64_t>(std::max(row.range.clamp_lo, 0.0));
  return true;
}

bool parse(std::string_view text, const RowSpec& row, bool clamp, double* out,
           std::string* error) {
  const Range& r = row.range;
  const char* noun =
      r.lo == 0.0 && r.hi == 1.0 && r.hi_open ? "a probability" : "a number";
  double value = 0.0;
  if (!parse_double(text, &value)) return must_be(error, row, noun, text);
  return fit(value, row, clamp, noun, text, out, error);
}

bool parse(std::string_view text, const RowSpec& row, bool, bool* out,
           std::string* error) {
  return parse_bool(text, out) || must_be(error, row, "true or false", text);
}

bool parse(std::string_view text, const RowSpec& row, bool clamp,
           std::string* out, std::string* error) {
  // A conf value may be empty ("" = unset); a spec value may not.
  if (!clamp && text.empty()) {
    return reject(error, std::string(row.key) + " must be non-empty");
  }
  if (!row.names.empty() && !find_name(row.names, text)) {
    return must_be(error, row, join_names(row.names), text);
  }
  *out = std::string(text);
  return true;
}

std::string format(std::int64_t value, const RowSpec& row) {
  if (!row.names.empty()) {
    return std::string(row.names[static_cast<std::size_t>(value)]);
  }
  return std::to_string(value);
}

std::string format(std::uint64_t value, const RowSpec&) {
  return std::to_string(value);
}

std::string format(double value, const RowSpec&) {
  // %.17g is the shortest printf precision that reproduces any double.
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string format(bool value, const RowSpec&) {
  return value ? "true" : "false";
}

std::string format(const std::string& value, const RowSpec&) { return value; }

std::string usage_entry(const RowSpec& row, std::string_view form, bool boolean,
                        bool repeated) {
  std::string entry = "[";
  entry.append(row.key);
  if (!boolean) {
    entry += '=';
    if (!form.empty()) {
      entry.append(form);
    } else if (row.names.empty()) {
      entry += 'N';
    }
    for (std::size_t i = 0; form.empty() && i < row.names.size(); ++i) {
      if (i > 0) entry += '|';
      entry.append(row.names[i]);
    }
  }
  entry.append(repeated ? "]..." : "]");
  return entry;
}

std::string usage_lines(std::string_view program,
                        const std::vector<std::string>& entries) {
  const std::size_t indent = 7 + program.size();  // "usage: <program>"
  std::string out = "usage: ";
  out.append(program);
  std::size_t column = indent;
  for (const std::string& entry : entries) {
    if (column > indent && column + 1 + entry.size() > 79) {
      out += '\n';
      out.append(indent, ' ');
      column = indent;
    }
    out += ' ';
    out += entry;
    column += 1 + entry.size();
  }
  out += '\n';
  return out;
}

}  // namespace detail

}  // namespace capes::util
