#pragma once
// String-keyed workload registry: the front door through which CLI flags,
// config files, and the core::Experiment builder resolve workload specs
// like "random:0.3" or "fileserver:seed=7" into running generators. Each
// bundled workload registers itself together with its spec parser, so
// adding a workload is one self-contained file plus a registration line —
// no CLI or facade changes.
//
// Spec grammar:  <name>[:<arg>[,<arg>...]]
// where each <arg> is either positional (meaning defined by the workload,
// e.g. the random read fraction) or a <key>=<value> pair. The registered
// factory owns parsing and validation of its own args; the key=value
// pairs are util::Option rows read by util::parse_options.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/options.hpp"
#include "workload/workload.hpp"

namespace capes::lustre {
class Cluster;
}

namespace capes::workload {

class Registry;

/// Pre-split spec arguments handed to a workload factory (shared with the
/// option-table grammars; see util/options.hpp).
using util::parse_spec_args;
using util::SpecArgs;

class Registry {
 public:
  /// Builds a workload on `cluster` from the (already name-stripped) spec
  /// args. Returns nullptr and sets *error on invalid args.
  using Factory = std::function<std::unique_ptr<Workload>(
      lustre::Cluster& cluster, const SpecArgs& args, std::string* error)>;

  /// The process-wide registry, with the bundled workloads registered.
  static Registry& instance();

  /// Register `name`. `spec_help` is the one-line usage string surfaced by
  /// `capes_run --list-workloads`. Returns false if the name is taken.
  bool add(std::string name, std::string spec_help, Factory factory);

  /// Resolve a full spec ("name" or "name:args") into a workload bound to
  /// `cluster`. Returns nullptr and sets *error (if non-null) on an
  /// unknown name or a spec the workload's parser rejects.
  std::unique_ptr<Workload> create(const std::string& spec,
                                   lustre::Cluster& cluster,
                                   std::string* error = nullptr) const;

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  ///< sorted
  std::string spec_help(const std::string& name) const;  ///< "" if unknown

 private:
  struct Entry {
    std::string help;
    Factory factory;
  };
  std::map<std::string, Entry> entries_;
};

/// Self-registration hook for workloads defined outside this library (the
/// registrar runs at static-init time of the defining translation unit).
/// Usage, in the workload's own file:
///   CAPES_REGISTER_WORKLOAD(my_load, "myload", "myload[:args]", factory_fn)
#define CAPES_REGISTER_WORKLOAD(tag, name, spec_help, factory)            \
  namespace {                                                             \
  [[maybe_unused]] const bool capes_workload_registered_##tag =           \
      ::capes::workload::Registry::instance().add((name), (spec_help),    \
                                                  (factory));             \
  }

}  // namespace capes::workload
