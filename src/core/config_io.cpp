#include "core/config_io.hpp"

#include "util/options.hpp"
#include "util/parse.hpp"

namespace capes::core {

namespace {

// The one row whose conf spelling is wider than its type: "auto" (or 0)
// is one event queue per control domain, and negatives run the serial
// loop. Read and written by the short rules beside the tables.
constexpr std::string_view kSimShardsKey = "capes.sim.shards";

// Conf prefixes of the spec rows declared next to their structs
// (bus::kSimTransportOptions, bus::kTcpTransportOptions,
// sim::kFaultOptions).
constexpr std::string_view kTransportPrefix = "capes.transport.";
constexpr std::string_view kTcpPrefix = "capes.transport.tcp.";
constexpr std::string_view kFaultPrefix = "capes.sim.faults.";

constexpr util::Option<CapesOptions> kCapesOptions[] = {
    {"capes.sampling_tick_s", CAPES_FIELD(sampling_tick_s)},
    {"capes.reward_scale_mbs", CAPES_FIELD(reward_scale_mbs)},
    {"capes.replay_db_dir", CAPES_FIELD(replay_db_dir)},
    // Flight recorder: a capture path turns recording on; the ring bounds
    // how far the file sink may fall behind before records are shed.
    {"capes.capture.path", CAPES_FIELD(capture_path)},
    {"capes.capture.ring", CAPES_FIELD(capture_ring), util::at_least(2)},
    {"capes.worker_threads", CAPES_FIELD(worker_threads)},
    {kSimShardsKey, CAPES_FIELD(sim_shards)},
    {"capes.sim.shard_plan", CAPES_FIELD(shard_plan), {}, sim::kShardPlanNames},
    {"capes.transport", CAPES_FIELD(transport.kind), {}, bus::kTransportNames},
    {"capes.learner.mode", CAPES_FIELD(engine.learner_mode), {},
     kLearnerModeNames},
    {"capes.learner.checkpoint_ticks", CAPES_FIELD(engine.checkpoint_ticks)},
    {"drl.minibatch_size", CAPES_FIELD(engine.minibatch_size)},
    {"drl.train_steps_per_tick", CAPES_FIELD(engine.train_steps_per_tick)},
    {"drl.eval_epsilon", CAPES_FIELD(engine.eval_epsilon)},
    {"drl.gamma", CAPES_FIELD(engine.dqn.gamma)},
    {"drl.learning_rate", CAPES_FIELD(engine.dqn.learning_rate)},
    {"drl.target_update_alpha", CAPES_FIELD(engine.dqn.target_update_alpha)},
    {"drl.num_hidden_layers", CAPES_FIELD(engine.dqn.num_hidden_layers)},
    {"drl.hidden_size", CAPES_FIELD(engine.dqn.hidden_size)},
    {"drl.use_target_network", CAPES_FIELD(engine.dqn.use_target_network)},
    {"drl.epsilon_initial", CAPES_FIELD(engine.epsilon.initial)},
    {"drl.epsilon_final", CAPES_FIELD(engine.epsilon.final_value)},
    {"drl.epsilon_anneal_ticks", CAPES_FIELD(engine.epsilon.anneal_ticks)},
    {"drl.epsilon_bump", CAPES_FIELD(engine.epsilon.bump_value)},
    {"replay.ticks_per_observation", CAPES_FIELD(replay.ticks_per_observation)},
    {"replay.missing_tolerance", CAPES_FIELD(replay.missing_tolerance)},
    {"replay.max_ticks_retained", CAPES_FIELD(replay.max_ticks_retained)},
};

constexpr util::Option<lustre::ClusterOptions> kClusterOptions[] = {
    {"lustre.num_clients", CAPES_FIELD(num_clients)},
    {"lustre.num_servers", CAPES_FIELD(num_servers)},
    {"lustre.default_cwnd", CAPES_FIELD(default_cwnd)},
    {"lustre.cwnd_min", CAPES_FIELD(cwnd_min)},
    {"lustre.cwnd_max", CAPES_FIELD(cwnd_max)},
    {"lustre.cwnd_step", CAPES_FIELD(cwnd_step)},
    {"lustre.default_rate_limit", CAPES_FIELD(default_rate_limit)},
    {"lustre.rate_limit_min", CAPES_FIELD(rate_limit_min)},
    {"lustre.rate_limit_max", CAPES_FIELD(rate_limit_max)},
    {"lustre.rate_limit_step", CAPES_FIELD(rate_limit_step)},
    {"lustre.max_dirty_bytes", CAPES_FIELD(max_dirty_bytes)},
    {"lustre.rpc_timeout_us", CAPES_FIELD(rpc_timeout)},
    {"lustre.fragmentation", CAPES_FIELD(fragmentation)},
    {"lustre.disk_fullness", CAPES_FIELD(disk_fullness)},
    {"lustre.seed", CAPES_FIELD(seed)},
    {"disk.seq_read_mbs", CAPES_FIELD(disk.seq_read_mbs)},
    {"disk.seq_write_mbs", CAPES_FIELD(disk.seq_write_mbs)},
    {"disk.read_positioning_us", CAPES_FIELD(disk.read_positioning_us)},
    {"disk.write_positioning_us", CAPES_FIELD(disk.write_positioning_us)},
    {"disk.write_queue_gain", CAPES_FIELD(disk.write_queue_gain)},
    {"disk.write_queue_scale", CAPES_FIELD(disk.write_queue_scale)},
    {"disk.read_queue_gain", CAPES_FIELD(disk.read_queue_gain)},
    {"disk.read_queue_scale", CAPES_FIELD(disk.read_queue_scale)},
    {"disk.service_noise", CAPES_FIELD(disk.service_noise)},
    {"network.link_bandwidth_mbs", CAPES_FIELD(network.link_bandwidth_mbs)},
    {"network.fabric_bandwidth_mbs", CAPES_FIELD(network.fabric_bandwidth_mbs)},
    {"network.base_latency_us", CAPES_FIELD(network.base_latency)},
    {"network.jitter_fraction", CAPES_FIELD(network.jitter_fraction)},
};

}  // namespace

bool check_config(const util::Config& cfg, std::string* error) {
  for (const auto& row : kCapesOptions) {
    const auto value = cfg.get(std::string(row.key));
    if (value && !row.names.empty() && !util::find_name(row.names, *value)) {
      return util::reject(error, "unknown " + std::string(row.key) + " '" +
                                     *value + "' (expected " +
                                     util::join_names(row.names) + ")");
    }
  }
  std::int64_t shards = 0;
  if (const auto value = cfg.get(std::string(kSimShardsKey));
      value && *value != "auto" && !util::parse_i64(*value, &shards)) {
    return util::reject(error, "invalid " + std::string(kSimShardsKey) + " '" +
                                   *value + "' (expected auto or an integer)");
  }
  return true;
}

CapesOptions capes_options_from_config(const util::Config& cfg,
                                       CapesOptions base) {
  CapesOptions o = base;
  util::read_options(kCapesOptions, cfg, "", &o);
  util::read_options(bus::kSimTransportOptions, cfg, kTransportPrefix,
                     &o.transport);
  util::read_options(bus::kTcpTransportOptions, cfg, kTcpPrefix, &o.transport);
  util::read_options(sim::kFaultOptions, cfg, kFaultPrefix, &o.faults);
  if (const auto shards = cfg.get(std::string(kSimShardsKey))) {
    std::int64_t n = 0;
    if (*shards == "auto") o.sim_shards = 0;
    if (util::parse_i64(*shards, &n) && n < 0) o.sim_shards = 1;
  }
  return o;
}

lustre::ClusterOptions cluster_options_from_config(const util::Config& cfg,
                                                   lustre::ClusterOptions base) {
  util::read_options(kClusterOptions, cfg, "", &base);
  return base;
}

util::Config config_from_options(const CapesOptions& capes,
                                 const lustre::ClusterOptions& cluster) {
  util::Config cfg;
  util::write_options(kCapesOptions, capes, "", &cfg);
  if (capes.sim_shards == 0) cfg.set(std::string(kSimShardsKey), "auto");
  util::write_options(bus::kSimTransportOptions, capes.transport,
                      kTransportPrefix, &cfg);
  if (capes.transport.kind == bus::TransportKind::kTcp) {
    util::write_options(bus::kTcpTransportOptions, capes.transport, kTcpPrefix,
                        &cfg);
  }
  // Faultless configs carry no fault keys, so their dumps stay
  // byte-identical to builds without fault injection.
  if (capes.faults.enabled() || capes.faults.seed_explicit) {
    util::write_options(sim::kFaultOptions, capes.faults, kFaultPrefix, &cfg);
  }
  util::write_options(kClusterOptions, cluster, "", &cfg);
  return cfg;
}

}  // namespace capes::core
