#pragma once
// Option tables: one declaration per setting. A row names a key, the
// struct field it sets, and the field's valid range (numbers) or names
// (enums, whose enumerators are 0..n-1 in name order). The same rows drive
// every grammar in both directions:
//
//   - the strict spec path (the "k=v,..." list after a scheme, as in
//     --transport=sim:drop=0.1) rejects unknown keys and malformed or
//     out-of-range values, echoing the offending token;
//   - the command-line path (parse_flags, rows keyed "--name") is as
//     strict, and flag_usage() prints the synopsis from the same rows;
//   - the conf path (util::Config overlays) clamps out-of-range numbers
//     and keeps the base value for unparsable ones;
//   - format_options() and write_options() print every row back, so a key
//     that can be read can also be dumped.
//
// Rows are constexpr aggregates, declared next to the struct they set:
//
//   inline constexpr util::Option<Opts> kOptsOptions[] = {
//       {"delay_ticks", CAPES_FIELD(delay_ticks), util::at_least(0)},
//       {"mode", CAPES_FIELD(mode), {}, kModeNames},
//   };

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/config.hpp"

/// The field accessor of an option row; `member` may be a nested path
/// such as engine.dqn.gamma.
#define CAPES_FIELD(member) [](auto& o) -> auto& { return o.member; }

namespace capes::util {

/// Pre-split spec arguments: bare tokens in order, key=value pairs by key.
struct SpecArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> named;
};

/// Split the comma-separated argument list of a spec. Returns false (with
/// *error set) on an empty argument or an empty key. An empty value
/// ("key=") is kept, for the consumer to reject with its own message.
bool parse_spec_args(const std::string& args, SpecArgs* out, std::string* error);

using Names = std::span<const std::string_view>;

/// Index of `text` in `names`.
std::optional<std::size_t> find_name(Names names, std::string_view text);

/// "a or b" / "a, b, or c", for error messages.
std::string join_names(Names names);

/// Set *error (when non-null) to `message` and return false.
bool reject(std::string* error, std::string message);

/// Valid values of a numeric row. The spec path rejects values outside
/// [lo, hi] ([lo, hi) when hi_open); the conf path clamps into
/// [clamp_lo, clamp_hi], which default to the same bounds.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool hi_open = false;
  double clamp_lo = lo;
  double clamp_hi = hi;
};

constexpr Range at_least(double lo) { return {.lo = lo}; }

/// [0, 1) on the spec path; conf values clamp into [0, 0.999].
constexpr Range probability() {
  return {.lo = 0.0, .hi = 1.0, .hi_open = true, .clamp_hi = 0.999};
}

/// What a row knows besides its field.
struct RowSpec {
  std::string_view key;
  Range range;
  Names names;
};

namespace detail {

// One parser and printer per stored type. parse() is strict (a failure
// sets *error, naming the key and the value) unless `clamp`, and leaves
// *out untouched on failure. An int64 row with names is an enum index;
// an unsigned row takes its names as 0..n-1 besides numbers in range
// (--sim-shards=auto is 0); a text row with names takes only those.
bool parse(std::string_view text, const RowSpec& row, bool clamp,
           std::int64_t* out, std::string* error);
bool parse(std::string_view text, const RowSpec& row, bool clamp,
           std::uint64_t* out, std::string* error);
bool parse(std::string_view text, const RowSpec& row, bool clamp, double* out,
           std::string* error);
bool parse(std::string_view text, const RowSpec& row, bool clamp, bool* out,
           std::string* error);
bool parse(std::string_view text, const RowSpec& row, bool clamp,
           std::string* out, std::string* error);
std::string format(std::int64_t value, const RowSpec& row);
std::string format(std::uint64_t value, const RowSpec& row);
std::string format(double value, const RowSpec& row);
std::string format(bool value, const RowSpec& row);
std::string format(const std::string& value, const RowSpec& row);

/// The type a field of type T is parsed and printed as.
template <typename T>
using Stored = std::conditional_t<
    std::is_same_v<T, bool> || std::is_same_v<T, std::string>, T,
    std::conditional_t<
        std::is_floating_point_v<T>, double,
        std::conditional_t<std::is_enum_v<T> || std::is_signed_v<T>,
                           std::int64_t, std::uint64_t>>>;

/// A field is a value, an std::optional (set when read) or an std::vector
/// (each read appends, for repeatable flags) of one.
template <typename T>
struct Unwrap {
  using type = T;
};
template <typename T>
struct Unwrap<std::optional<T>> {
  using type = T;
};
template <typename T>
struct Unwrap<std::vector<T>> {
  using type = T;
};

template <typename S, typename Access>
using FieldType =
    std::remove_reference_t<decltype(std::declval<Access>()(std::declval<S&>()))>;

/// "[--key=FORM]", "[--key=FORM]..." or "[--key]" for a bool.
std::string usage_entry(const RowSpec& row, std::string_view form, bool boolean,
                        bool repeated);
/// "usage: <program> <entry>...", wrapped at 79 columns.
std::string usage_lines(std::string_view program,
                        const std::vector<std::string>& entries);

}  // namespace detail

/// Type-erased access to one field of S, built from a CAPES_FIELD lambda.
template <typename S>
struct Field {
  bool (*assign)(S& s, std::string_view text, const RowSpec& row, bool clamp,
                 std::string* error);
  std::string (*format)(const S& s, const RowSpec& row);
  bool boolean;   ///< a bare --flag sets it
  bool repeated;  ///< an std::vector: each value appends

  template <typename Access,
            typename T = detail::FieldType<S, Access>,
            typename E = typename detail::Unwrap<T>::type>
  constexpr Field(Access)  // implicit, so a row reads {key, CAPES_FIELD(x)}
      : assign([](S& s, std::string_view text, const RowSpec& row, bool clamp,
                  std::string* error) {
          detail::Stored<E> value{};
          if (!detail::parse(text, row, clamp, &value, error)) return false;
          if constexpr (std::is_same_v<T, std::vector<E>>) {
            Access{}(s).push_back(static_cast<E>(value));
          } else {
            Access{}(s) = static_cast<E>(value);
          }
          return true;
        }),
        format([](const S& s, const RowSpec& row) {
          const T& field = Access{}(s);
          const auto one = [&row](const E& v) {
            return detail::format(static_cast<detail::Stored<E>>(v), row);
          };
          if constexpr (std::is_same_v<T, std::vector<E>>) {
            std::string out;
            for (const E& v : field) {
              if (!out.empty()) out += ',';
              out += one(v);
            }
            return out;
          } else if constexpr (std::is_same_v<T, std::optional<E>>) {
            return field ? one(*field) : std::string();
          } else {
            return one(field);
          }
        }),
        boolean(std::is_same_v<E, bool>),
        repeated(std::is_same_v<T, std::vector<E>>) {}
};

/// A bool member recording that a row was given (seeds: absent means
/// "derive one"). Reading the row sets it; the writers print the row only
/// while it is set.
template <typename S>
struct Flag {
  bool& (*set)(S&) = nullptr;
  const bool& (*get)(const S&) = nullptr;

  constexpr Flag() = default;
  template <typename Access>
  constexpr Flag(Access access) : set(access), get(access) {}  // implicit
};

template <typename S>
struct Option {
  std::string_view key;
  Field<S> field;
  Range range = {};
  Names names = {};
  Flag<S> given = {};
  /// Flag rows only: the value's form in the usage ("FILE"; by default
  /// the names, or N for a number), and a further check of the raw value
  /// (a spec with a grammar of its own; see parses_as).
  std::string_view form = {};
  bool (*check)(std::string_view text, std::string* error) = nullptr;

  bool assign(S& s, std::string_view text, bool clamp,
              std::string* error) const {
    if (!field.assign(s, text, {key, range, names}, clamp, error)) return false;
    if (given.set) given.set(s) = true;
    return true;
  }
  bool printed(const S& s) const { return !given.get || given.get(s); }
  std::string format(const S& s) const {
    return field.format(s, {key, range, names});
  }
};

template <typename S>
using Options = std::span<const Option<std::type_identity_t<S>>>;

/// An Option::check that `Parse` accepts the value, e.g.
/// parses_as<bus::TransportOptions, bus::parse_transport_spec>.
template <typename T, bool (*Parse)(std::string_view, T*, std::string*)>
bool parses_as(std::string_view text, std::string* error) {
  T scratch{};
  return Parse(text, &scratch, error);
}

/// Strict spec path over a pre-split list: apply the key=value pairs of
/// `args` to *out and reject any positional argument left in it. `what`
/// names an option in errors ("unknown <what> 'k'"). On failure *out may
/// be partly written; callers parse into a scratch struct.
template <typename S>
bool parse_options(Options<S> rows, const SpecArgs& args,
                   std::string_view what, S* out, std::string* error) {
  if (!args.positional.empty()) {
    return reject(error, "malformed " + std::string(what) + " '" +
                             args.positional.front() +
                             "' (expected key=value)");
  }
  std::vector<std::string_view> keys;
  for (const Option<S>& row : rows) keys.push_back(row.key);
  for (const auto& [key, value] : args.named) {
    const auto index = find_name(keys, key);
    if (!index) {
      return reject(error, "unknown " + std::string(what) + " '" + key +
                               "' (expected " + join_names(keys) + ")");
    }
    if (!rows[*index].assign(*out, value, /*clamp=*/false, error)) return false;
  }
  return true;
}

/// Strict spec path: apply the "k=v,..." list `args` to *out.
template <typename S>
bool parse_options(Options<S> rows, std::string_view args,
                   std::string_view what, S* out, std::string* error) {
  SpecArgs split;
  if (!args.empty() && !parse_spec_args(std::string(args), &split, error)) {
    return false;
  }
  return parse_options(rows, split, what, out, error);
}

/// Command-line path: apply argv[1, argc) to *out, in order, over rows
/// keyed by their flag ("--seed"). "--key=value" sets a row, a bare
/// "--key" sets a bool row, and a repeated row appends each value.
/// Returns false on an unknown argument or a malformed, out-of-range or
/// check-rejected value, with *error echoing the offending token.
template <typename S>
bool parse_flags(Options<S> rows, int argc, char** argv, S* out,
                 std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const Option<S>* row = nullptr;
    for (const Option<S>& candidate : rows) {
      if (candidate.key == key) row = &candidate;
    }
    if (row == nullptr || (eq == arg.npos && !row->field.boolean)) {
      return reject(error, "unknown argument: " + std::string(arg));
    }
    const std::string_view value =
        eq == arg.npos ? "true" : arg.substr(eq + 1);
    std::string why;
    if (row->check && !row->check(value, &why)) {
      return reject(error, "invalid value for " + std::string(key) + ": " + why);
    }
    if (!row->assign(*out, value, /*clamp=*/false, error)) return false;
  }
  return true;
}

/// "usage: <program> [--key=FORM]..." from the rows, in row order,
/// wrapped at 79 columns.
template <typename S>
std::string flag_usage(Options<S> rows, std::string_view program) {
  std::vector<std::string> entries;
  for (const Option<S>& row : rows) {
    entries.push_back(detail::usage_entry({row.key, row.range, row.names},
                                          row.form, row.field.boolean,
                                          row.field.repeated));
  }
  return detail::usage_lines(program, entries);
}

/// Canonical "k=v,..." list of `in`, in row order; parse_options reads
/// it back to an identical struct.
template <typename S>
std::string format_options(Options<S> rows, const S& in) {
  std::string out;
  for (const Option<S>& row : rows) {
    if (!row.printed(in)) continue;
    if (!out.empty()) out += ',';
    out += std::string(row.key) + '=' + row.format(in);
  }
  return out;
}

/// Conf path: overlay every `prefix`+key present in `cfg` onto *out.
template <typename S>
void read_options(Options<S> rows, const Config& cfg, std::string_view prefix,
                  S* out) {
  for (const Option<S>& row : rows) {
    const auto text = cfg.get(std::string(prefix) + std::string(row.key));
    if (text) row.assign(*out, *text, /*clamp=*/true, nullptr);
  }
}

/// Conf writer: set `prefix`+key for every printed row of `in`.
template <typename S>
void write_options(Options<S> rows, const S& in, std::string_view prefix,
                   Config* out) {
  for (const Option<S>& row : rows) {
    if (row.printed(in)) {
      out->set(std::string(prefix) + std::string(row.key), row.format(in));
    }
  }
}

}  // namespace capes::util
