#include "util/config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/parse.hpp"

namespace capes::util {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

bool Config::parse_string(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (key.empty()) return false;
    values_[key] = value;
  }
  return true;
}

bool Config::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_string(ss.str());
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::set_int(const std::string& key, std::int64_t value) {
  values_[key] = std::to_string(value);
}

void Config::set_double(const std::string& key, double value) {
  std::ostringstream ss;
  ss.precision(17);
  ss << value;
  values_[key] = ss.str();
}

void Config::set_bool(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

bool Config::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Config::get(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::optional<std::string> Config::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') return fallback;
  return v;
}

double Config::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') return fallback;
  return v;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  bool v = fallback;
  if (it != values_.end()) parse_bool(it->second, &v);
  return v;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::string Config::dump() const {
  std::ostringstream ss;
  for (const auto& [k, v] : values_) ss << k << " = " << v << "\n";
  return ss.str();
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

}  // namespace capes::util
