#include "workload/registry.hpp"

#include "util/parse.hpp"
#include "workload/file_server.hpp"
#include "workload/random_rw.hpp"
#include "workload/seq_write.hpp"

namespace capes::workload {

namespace spec {

namespace {

/// Looks up `key`, erases it, and hands the raw value to `convert`.
template <typename T, typename Convert>
bool take(SpecArgs& args, const std::string& key, T* out, std::string* error,
          Convert convert) {
  const auto it = args.named.find(key);
  if (it == args.named.end()) return true;  // absent keeps the default
  if (!convert(it->second, out)) {
    if (error) *error = "invalid value for '" + key + "': " + it->second;
    return false;
  }
  args.named.erase(it);
  return true;
}

}  // namespace

bool take_u64(SpecArgs& args, const std::string& key, std::uint64_t* out,
              std::string* error) {
  return take(args, key, out, error, [](const std::string& s, std::uint64_t* v) {
    return util::parse_u64(s, v);
  });
}

bool take_size(SpecArgs& args, const std::string& key, std::size_t* out,
               std::string* error) {
  // Size-like knobs (threads, instances, streams) must also be non-zero.
  return take(args, key, out, error, [](const std::string& s, std::size_t* v) {
    std::uint64_t u = 0;
    if (!util::parse_u64(s, &u) || u == 0) return false;
    *v = static_cast<std::size_t>(u);
    return true;
  });
}

bool reject_unknown(const SpecArgs& args, std::size_t max_positional,
                    std::string* error) {
  if (!args.named.empty()) {
    if (error) *error = "unknown spec key '" + args.named.begin()->first + "'";
    return false;
  }
  if (args.positional.size() > max_positional) {
    if (error) {
      *error = "unexpected argument '" + args.positional[max_positional] + "'";
    }
    return false;
  }
  return true;
}

}  // namespace spec

Registry& Registry::instance() {
  // The bundled workloads live in this static library; a pure
  // static-initializer registration in their translation units would be
  // dropped by the linker whenever a binary only talks to the registry,
  // so the built-ins are registered explicitly on first use. Workloads in
  // executables can rely on CAPES_REGISTER_WORKLOAD alone.
  static Registry* registry = [] {
    auto* r = new Registry();
    register_random_rw(*r);
    register_file_server(*r);
    register_seq_write(*r);
    return r;
  }();
  return *registry;
}

bool Registry::add(std::string name, std::string spec_help, Factory factory) {
  if (name.empty() || !factory) return false;
  return entries_.emplace(std::move(name),
                          Entry{std::move(spec_help), std::move(factory)})
      .second;
}

std::unique_ptr<Workload> Registry::create(const std::string& spec,
                                           lustre::Cluster& cluster,
                                           std::string* error) const {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    if (error) *error = "unknown workload '" + name + "'";
    return nullptr;
  }
  SpecArgs args;
  if (colon != std::string::npos &&
      !parse_spec_args(spec.substr(colon + 1), &args, error)) {
    return nullptr;
  }
  std::string local_error;
  auto workload = it->second.factory(cluster, args, &local_error);
  if (!workload && error) {
    *error = name + ": " + (local_error.empty() ? "invalid spec" : local_error);
  }
  return workload;
}

bool Registry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::string Registry::spec_help(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? std::string() : it->second.help;
}

}  // namespace capes::workload
