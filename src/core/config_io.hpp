#pragma once
// Bridge between util::Config (the conf.py analogue) and the typed option
// structs. Every key is optional; absent keys keep the struct's defaults,
// so a config file only needs to list overrides. Each key is one option
// table row (util/options.hpp); the transport and fault keys are the spec
// rows of bus::TransportOptions and sim::FaultPlan under a conf prefix.

#include <string>

#include "core/capes_system.hpp"
#include "lustre/types.hpp"
#include "util/config.hpp"

namespace capes::core {

/// The strict checks a conf file passes before it overlays anything: every
/// enum key names a known value and capes.sim.shards is "auto" or an
/// integer. Returns false with *error set otherwise.
bool check_config(const util::Config& cfg, std::string* error);

/// Read "capes.*", "drl.*", "replay.*" keys into CapesOptions.
CapesOptions capes_options_from_config(const util::Config& cfg,
                                       CapesOptions base = {});

/// Read "lustre.*", "disk.*", "network.*" keys into ClusterOptions.
lustre::ClusterOptions cluster_options_from_config(
    const util::Config& cfg, lustre::ClusterOptions base = {});

/// Serialize the effective options back to a Config (for dumping the
/// configuration a run actually used). Every row is written, except tcp
/// keys outside the tcp transport, fault keys while faults are off, and
/// seeds that were never set explicitly.
util::Config config_from_options(const CapesOptions& capes,
                                 const lustre::ClusterOptions& cluster);

}  // namespace capes::core
