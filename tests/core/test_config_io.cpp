#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

namespace capes::core {
namespace {

TEST(ConfigIo, EmptyConfigKeepsDefaults) {
  util::Config cfg;
  const CapesOptions o = capes_options_from_config(cfg);
  const CapesOptions d;
  EXPECT_DOUBLE_EQ(o.sampling_tick_s, d.sampling_tick_s);
  EXPECT_EQ(o.engine.minibatch_size, d.engine.minibatch_size);
  EXPECT_FLOAT_EQ(o.engine.dqn.gamma, d.engine.dqn.gamma);
}

TEST(ConfigIo, CapesKeysApplied) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.sampling_tick_s = 0.5
capes.reward_scale_mbs = 150
drl.minibatch_size = 64
drl.gamma = 0.9
drl.learning_rate = 0.001
drl.epsilon_anneal_ticks = 1234
drl.use_target_network = false
replay.ticks_per_observation = 7
replay.missing_tolerance = 0.3
)"));
  const CapesOptions o = capes_options_from_config(cfg);
  EXPECT_DOUBLE_EQ(o.sampling_tick_s, 0.5);
  EXPECT_DOUBLE_EQ(o.reward_scale_mbs, 150.0);
  EXPECT_EQ(o.engine.minibatch_size, 64u);
  EXPECT_FLOAT_EQ(o.engine.dqn.gamma, 0.9f);
  EXPECT_FLOAT_EQ(o.engine.dqn.learning_rate, 1e-3f);
  EXPECT_EQ(o.engine.epsilon.anneal_ticks, 1234);
  EXPECT_FALSE(o.engine.dqn.use_target_network);
  EXPECT_EQ(o.replay.ticks_per_observation, 7u);
  EXPECT_DOUBLE_EQ(o.replay.missing_tolerance, 0.3);
}

TEST(ConfigIo, ClusterKeysApplied) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
lustre.num_clients = 3
lustre.num_servers = 2
lustre.default_cwnd = 16
lustre.fragmentation = 0.25
disk.seq_write_mbs = 90
disk.write_queue_gain = 1.5
network.fabric_bandwidth_mbs = 250
network.base_latency_us = 500
)"));
  const auto o = cluster_options_from_config(cfg);
  EXPECT_EQ(o.num_clients, 3u);
  EXPECT_EQ(o.num_servers, 2u);
  EXPECT_DOUBLE_EQ(o.default_cwnd, 16.0);
  EXPECT_DOUBLE_EQ(o.fragmentation, 0.25);
  EXPECT_DOUBLE_EQ(o.disk.seq_write_mbs, 90.0);
  EXPECT_DOUBLE_EQ(o.disk.write_queue_gain, 1.5);
  EXPECT_DOUBLE_EQ(o.network.fabric_bandwidth_mbs, 250.0);
  EXPECT_EQ(o.network.base_latency, 500);
}

TEST(ConfigIo, TransportKeysApplied) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.transport = sim
capes.transport.latency_ticks = 3
capes.transport.jitter = 2.5
capes.transport.drop = 0.1
capes.transport.seed = 77
)"));
  const CapesOptions o = capes_options_from_config(cfg);
  EXPECT_EQ(o.transport.kind, bus::TransportKind::kSim);
  EXPECT_EQ(o.transport.latency_ticks, 3);
  EXPECT_DOUBLE_EQ(o.transport.jitter, 2.5);
  EXPECT_DOUBLE_EQ(o.transport.drop, 0.1);
  EXPECT_EQ(o.transport.seed, 77u);
  EXPECT_TRUE(o.transport.seed_explicit);
  // Absent keys keep the sync default with no explicit seed.
  const CapesOptions d = capes_options_from_config(util::Config{});
  EXPECT_EQ(d.transport.kind, bus::TransportKind::kSync);
  EXPECT_FALSE(d.transport.seed_explicit);
}

TEST(ConfigIo, TransportKeysRoundTrip) {
  CapesOptions capes;
  capes.transport.kind = bus::TransportKind::kSim;
  capes.transport.latency_ticks = 5;
  capes.transport.jitter = 1.5;
  capes.transport.drop = 0.05;
  capes.transport.seed = 9;
  capes.transport.seed_explicit = true;
  const util::Config cfg = config_from_options(capes, lustre::ClusterOptions{});
  const CapesOptions back = capes_options_from_config(cfg);
  EXPECT_EQ(back.transport.kind, bus::TransportKind::kSim);
  EXPECT_EQ(back.transport.latency_ticks, 5);
  EXPECT_DOUBLE_EQ(back.transport.jitter, 1.5);
  EXPECT_DOUBLE_EQ(back.transport.drop, 0.05);
  EXPECT_EQ(back.transport.seed, 9u);
  EXPECT_TRUE(back.transport.seed_explicit);
}

TEST(ConfigIo, CaptureKeysAppliedAndRoundTrip) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.capture.path = /tmp/trace.cap
capes.capture.ring = 1024
)"));
  const CapesOptions o = capes_options_from_config(cfg);
  EXPECT_EQ(o.capture_path, "/tmp/trace.cap");
  EXPECT_EQ(o.capture_ring, 1024u);

  const util::Config dumped = config_from_options(o, lustre::ClusterOptions{});
  const CapesOptions back = capes_options_from_config(dumped);
  EXPECT_EQ(back.capture_path, "/tmp/trace.cap");
  EXPECT_EQ(back.capture_ring, 1024u);

  // Defaults: capture off, ring floor of 2 enforced.
  const CapesOptions d = capes_options_from_config(util::Config{});
  EXPECT_TRUE(d.capture_path.empty());
  util::Config tiny;
  ASSERT_TRUE(tiny.parse_string("capes.capture.ring = 0\n"));
  EXPECT_EQ(capes_options_from_config(tiny).capture_ring, 2u);
}

TEST(ConfigIo, BaseOverridesPreserved) {
  CapesOptions base;
  base.reward_scale_mbs = 123.0;
  util::Config cfg;
  const CapesOptions o = capes_options_from_config(cfg, base);
  EXPECT_DOUBLE_EQ(o.reward_scale_mbs, 123.0);
}

TEST(ConfigIo, RoundTripThroughConfig) {
  CapesOptions capes;
  capes.engine.minibatch_size = 48;
  capes.engine.dqn.gamma = 0.93f;
  lustre::ClusterOptions cluster;
  cluster.num_clients = 7;
  cluster.default_cwnd = 24.0;

  const util::Config cfg = config_from_options(capes, cluster);
  const CapesOptions c2 = capes_options_from_config(cfg);
  const auto cl2 = cluster_options_from_config(cfg);
  EXPECT_EQ(c2.engine.minibatch_size, 48u);
  EXPECT_NEAR(c2.engine.dqn.gamma, 0.93f, 1e-6f);
  EXPECT_EQ(cl2.num_clients, 7u);
  EXPECT_DOUBLE_EQ(cl2.default_cwnd, 24.0);
}

TEST(ConfigIo, ConfigFromOptionsDumpsParsable) {
  const auto cfg = config_from_options(CapesOptions{}, lustre::ClusterOptions{});
  util::Config reparsed;
  EXPECT_TRUE(reparsed.parse_string(cfg.dump()));
  EXPECT_GT(reparsed.size(), 10u);
}

TEST(ConfigIo, U64SeedKeysAcceptTheFullRange) {
  // Every seed the spec grammar accepts, a conf file accepts too.
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.transport.seed = 18446744073709551615
capes.sim.faults.seed = 18446744073709551614
lustre.seed = 18446744073709551613
)"));
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const CapesOptions o = capes_options_from_config(cfg);
  EXPECT_EQ(o.transport.seed, kMax);
  EXPECT_TRUE(o.transport.seed_explicit);
  EXPECT_EQ(o.faults.seed, kMax - 1);
  EXPECT_TRUE(o.faults.seed_explicit);
  EXPECT_EQ(cluster_options_from_config(cfg).seed, kMax - 2);

  // And they are written back as unsigned decimals.
  const util::Config dumped = config_from_options(o, {});
  EXPECT_EQ(dumped.get("capes.transport.seed", ""), "18446744073709551615");
  EXPECT_EQ(dumped.get("capes.sim.faults.seed", ""), "18446744073709551614");
}

// Every conf row at a non-default, in-range value, with every writer gate
// open (tcp transport, faults on, explicit seeds).
CapesOptions every_capes_row_set() {
  CapesOptions c;
  c.sampling_tick_s = 0.5;
  c.reward_scale_mbs = 150.25;
  c.replay_db_dir = "/var/tmp/capes_db";
  c.capture_path = "/var/tmp/trace.cap";
  c.capture_ring = 1024;
  c.worker_threads = 3;
  c.sim_shards = 4;
  c.shard_plan = sim::ShardPlanKind::kRate;
  c.transport.kind = bus::TransportKind::kTcp;
  c.transport.latency_ticks = 3;
  c.transport.jitter = 2.5;
  c.transport.drop = 0.125;
  c.transport.seed = 77;
  c.transport.seed_explicit = true;
  c.transport.tcp_host = "10.0.0.7";
  c.transport.tcp_port = 4890;
  c.transport.connect_timeout_ms = 250;
  c.faults.ost_crash = 0.01;
  c.faults.restart_ticks = 9;
  c.faults.straggler = 0.02;
  c.faults.slow_factor = 4.5;
  c.faults.straggler_ticks = 12;
  c.faults.partition = 0.003;
  c.faults.partition_ticks = 6;
  c.faults.seed = 99;
  c.faults.seed_explicit = true;
  c.engine.learner_mode = LearnerMode::kAsync;
  c.engine.checkpoint_ticks = 50;
  c.engine.minibatch_size = 64;
  c.engine.train_steps_per_tick = 2;
  c.engine.eval_epsilon = 0.1;
  c.engine.dqn.gamma = 0.9f;
  c.engine.dqn.learning_rate = 1e-3f;
  c.engine.dqn.target_update_alpha = 0.02f;
  c.engine.dqn.num_hidden_layers = 3;
  c.engine.dqn.hidden_size = 48;
  c.engine.dqn.use_target_network = false;
  c.engine.epsilon.initial = 0.9;
  c.engine.epsilon.final_value = 0.01;
  c.engine.epsilon.anneal_ticks = 1234;
  c.engine.epsilon.bump_value = 0.3;
  c.replay.ticks_per_observation = 7;
  c.replay.missing_tolerance = 0.3;
  c.replay.max_ticks_retained = 5000;
  return c;
}

lustre::ClusterOptions every_cluster_row_set() {
  lustre::ClusterOptions c;
  c.num_clients = 3;
  c.num_servers = 2;
  c.default_cwnd = 16.0;
  c.cwnd_min = 2.0;
  c.cwnd_max = 64.0;
  c.cwnd_step = 4.0;
  c.default_rate_limit = 3000.0;
  c.rate_limit_min = 600.0;
  c.rate_limit_max = 3500.0;
  c.rate_limit_step = 50.0;
  c.max_dirty_bytes = 16ull << 20;
  c.rpc_timeout = 30'000'000;
  c.fragmentation = 0.25;
  c.disk_fullness = 0.5;
  c.seed = std::numeric_limits<std::uint64_t>::max() - 5;
  c.disk.seq_read_mbs = 100.0;
  c.disk.seq_write_mbs = 90.0;
  c.disk.read_positioning_us = 8000;
  c.disk.write_positioning_us = 9000;
  c.disk.write_queue_gain = 1.5;
  c.disk.write_queue_scale = 100.0;
  c.disk.read_queue_gain = 0.5;
  c.disk.read_queue_scale = 20.0;
  c.disk.service_noise = 0.05;
  c.network.link_bandwidth_mbs = 110.0;
  c.network.fabric_bandwidth_mbs = 250.0;
  c.network.base_latency = 500;
  c.network.jitter_fraction = 0.1;
  return c;
}

void expect_same_transport(const bus::TransportOptions& a,
                           const bus::TransportOptions& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.latency_ticks, b.latency_ticks);
  EXPECT_EQ(a.jitter, b.jitter);
  EXPECT_EQ(a.drop, b.drop);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.seed_explicit, b.seed_explicit);
  EXPECT_EQ(a.tcp_host, b.tcp_host);
  EXPECT_EQ(a.tcp_port, b.tcp_port);
  EXPECT_EQ(a.connect_timeout_ms, b.connect_timeout_ms);
}

void expect_same_faults(const sim::FaultPlan& a, const sim::FaultPlan& b) {
  EXPECT_EQ(a.ost_crash, b.ost_crash);
  EXPECT_EQ(a.restart_ticks, b.restart_ticks);
  EXPECT_EQ(a.straggler, b.straggler);
  EXPECT_EQ(a.slow_factor, b.slow_factor);
  EXPECT_EQ(a.straggler_ticks, b.straggler_ticks);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.partition_ticks, b.partition_ticks);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.seed_explicit, b.seed_explicit);
}

TEST(ConfigIo, EveryRowRoundTrips) {
  const CapesOptions c = every_capes_row_set();
  const lustre::ClusterOptions l = every_cluster_row_set();
  const util::Config cfg = config_from_options(c, l);
  const CapesOptions c2 = capes_options_from_config(cfg);
  const lustre::ClusterOptions l2 = cluster_options_from_config(cfg);

  EXPECT_EQ(c2.sampling_tick_s, c.sampling_tick_s);
  EXPECT_EQ(c2.reward_scale_mbs, c.reward_scale_mbs);
  EXPECT_EQ(c2.replay_db_dir, c.replay_db_dir);
  EXPECT_EQ(c2.capture_path, c.capture_path);
  EXPECT_EQ(c2.capture_ring, c.capture_ring);
  EXPECT_EQ(c2.worker_threads, c.worker_threads);
  EXPECT_EQ(c2.sim_shards, c.sim_shards);
  EXPECT_EQ(c2.shard_plan, c.shard_plan);
  expect_same_transport(c2.transport, c.transport);
  expect_same_faults(c2.faults, c.faults);
  EXPECT_EQ(c2.engine.learner_mode, c.engine.learner_mode);
  EXPECT_EQ(c2.engine.checkpoint_ticks, c.engine.checkpoint_ticks);
  EXPECT_EQ(c2.engine.minibatch_size, c.engine.minibatch_size);
  EXPECT_EQ(c2.engine.train_steps_per_tick, c.engine.train_steps_per_tick);
  EXPECT_EQ(c2.engine.eval_epsilon, c.engine.eval_epsilon);
  EXPECT_EQ(c2.engine.dqn.gamma, c.engine.dqn.gamma);
  EXPECT_EQ(c2.engine.dqn.learning_rate, c.engine.dqn.learning_rate);
  EXPECT_EQ(c2.engine.dqn.target_update_alpha,
            c.engine.dqn.target_update_alpha);
  EXPECT_EQ(c2.engine.dqn.num_hidden_layers, c.engine.dqn.num_hidden_layers);
  EXPECT_EQ(c2.engine.dqn.hidden_size, c.engine.dqn.hidden_size);
  EXPECT_EQ(c2.engine.dqn.use_target_network,
            c.engine.dqn.use_target_network);
  EXPECT_EQ(c2.engine.epsilon.initial, c.engine.epsilon.initial);
  EXPECT_EQ(c2.engine.epsilon.final_value, c.engine.epsilon.final_value);
  EXPECT_EQ(c2.engine.epsilon.anneal_ticks, c.engine.epsilon.anneal_ticks);
  EXPECT_EQ(c2.engine.epsilon.bump_value, c.engine.epsilon.bump_value);
  EXPECT_EQ(c2.replay.ticks_per_observation, c.replay.ticks_per_observation);
  EXPECT_EQ(c2.replay.missing_tolerance, c.replay.missing_tolerance);
  EXPECT_EQ(c2.replay.max_ticks_retained, c.replay.max_ticks_retained);

  EXPECT_EQ(l2.num_clients, l.num_clients);
  EXPECT_EQ(l2.num_servers, l.num_servers);
  EXPECT_EQ(l2.default_cwnd, l.default_cwnd);
  EXPECT_EQ(l2.cwnd_min, l.cwnd_min);
  EXPECT_EQ(l2.cwnd_max, l.cwnd_max);
  EXPECT_EQ(l2.cwnd_step, l.cwnd_step);
  EXPECT_EQ(l2.default_rate_limit, l.default_rate_limit);
  EXPECT_EQ(l2.rate_limit_min, l.rate_limit_min);
  EXPECT_EQ(l2.rate_limit_max, l.rate_limit_max);
  EXPECT_EQ(l2.rate_limit_step, l.rate_limit_step);
  EXPECT_EQ(l2.max_dirty_bytes, l.max_dirty_bytes);
  EXPECT_EQ(l2.rpc_timeout, l.rpc_timeout);
  EXPECT_EQ(l2.fragmentation, l.fragmentation);
  EXPECT_EQ(l2.disk_fullness, l.disk_fullness);
  EXPECT_EQ(l2.seed, l.seed);
  EXPECT_EQ(l2.disk.seq_read_mbs, l.disk.seq_read_mbs);
  EXPECT_EQ(l2.disk.seq_write_mbs, l.disk.seq_write_mbs);
  EXPECT_EQ(l2.disk.read_positioning_us, l.disk.read_positioning_us);
  EXPECT_EQ(l2.disk.write_positioning_us, l.disk.write_positioning_us);
  EXPECT_EQ(l2.disk.write_queue_gain, l.disk.write_queue_gain);
  EXPECT_EQ(l2.disk.write_queue_scale, l.disk.write_queue_scale);
  EXPECT_EQ(l2.disk.read_queue_gain, l.disk.read_queue_gain);
  EXPECT_EQ(l2.disk.read_queue_scale, l.disk.read_queue_scale);
  EXPECT_EQ(l2.disk.service_noise, l.disk.service_noise);
  EXPECT_EQ(l2.network.link_bandwidth_mbs, l.network.link_bandwidth_mbs);
  EXPECT_EQ(l2.network.fabric_bandwidth_mbs, l.network.fabric_bandwidth_mbs);
  EXPECT_EQ(l2.network.base_latency, l.network.base_latency);
  EXPECT_EQ(l2.network.jitter_fraction, l.network.jitter_fraction);

  // The same values through the spec grammars: every sim, tcp and fault
  // row survives its canonical string.
  bus::TransportOptions sim_spec = c.transport;
  sim_spec.kind = bus::TransportKind::kSim;
  sim_spec.tcp_host.clear();
  sim_spec.tcp_port = 0;
  sim_spec.connect_timeout_ms = bus::TransportOptions{}.connect_timeout_ms;
  bus::TransportOptions tcp_spec;
  tcp_spec.kind = bus::TransportKind::kTcp;
  tcp_spec.tcp_host = c.transport.tcp_host;
  tcp_spec.tcp_port = c.transport.tcp_port;
  tcp_spec.connect_timeout_ms = c.transport.connect_timeout_ms;
  for (const bus::TransportOptions& t : {sim_spec, tcp_spec}) {
    bus::TransportOptions back;
    std::string error;
    ASSERT_TRUE(bus::parse_transport_spec(bus::transport_spec_string(t), &back,
                                          &error))
        << error;
    expect_same_transport(back, t);
  }
  sim::FaultPlan faults_back;
  std::string error;
  ASSERT_TRUE(sim::parse_fault_spec(sim::fault_spec_string(c.faults),
                                    &faults_back, &error))
      << error;
  expect_same_faults(faults_back, c.faults);
}

TEST(ConfigIo, ConfigDocListsExactlyTheDeclaredKeys) {
  std::ifstream in(std::string(CAPES_SOURCE_DIR) + "/docs/CONFIG.md");
  ASSERT_TRUE(in) << "cannot read docs/CONFIG.md";
  std::stringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();

  // With every writer gate open, a dump holds every declared conf key.
  std::set<std::string> declared;
  for (const std::string& key :
       config_from_options(every_capes_row_set(), every_cluster_row_set())
           .keys()) {
    declared.insert(key);
    EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
        << key << " is declared but missing from docs/CONFIG.md";
  }

  // Every key in the first column of the "Conf keys" tables is declared.
  const std::size_t begin = doc.find("## Conf keys");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = doc.find("\n## ", begin + 1);
  std::istringstream section(doc.substr(begin, end - begin));
  std::size_t documented = 0;
  for (std::string line; std::getline(section, line);) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t open = cell.find('`'); open != std::string::npos;
         open = cell.find('`', cell.find('`', open + 1) + 1)) {
      const std::string key =
          cell.substr(open + 1, cell.find('`', open + 1) - open - 1);
      ++documented;
      EXPECT_TRUE(declared.count(key))
          << key << " is documented but declared in no option table";
    }
  }
  EXPECT_EQ(documented, declared.size());
}

}  // namespace
}  // namespace capes::core
