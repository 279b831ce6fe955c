// Tests for MonitoringAgent, ControlAgent and InterfaceDaemon working over
// a mock target system.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "bus/transport.hpp"
#include "core/control_agent.hpp"
#include "util/varint.hpp"
#include "core/interface_daemon.hpp"
#include "core/monitoring_agent.hpp"
#include "mock_adapter.hpp"

namespace capes::core {
namespace {

using testing::MockAdapter;

/// Agents publish into a local sync channel; drain() hands everything due
/// at tick t to the daemon's on_status_message.
struct StatusWire {
  explicit StatusWire(InterfaceDaemon& daemon) : daemon(daemon) {}

  void drain(std::int64_t t) {
    channel.drain(t, [this](bus::Message<std::vector<std::uint8_t>>& msg) {
      daemon.on_status_message(msg.payload);
    });
  }

  InterfaceDaemon& daemon;
  bus::SyncTransport transport;
  PiChannel channel{transport, 0};
};

/// One domain-less shard over the fixture's own parameter vector.
struct DaemonFixture : public ::testing::Test {
  DaemonFixture()
      : adapter(3, 4),
        space(adapter.tunable_parameters()),
        replay(make_replay_options(), nullptr),
        daemon(replay, {DaemonShard{&space, 1, &values}}, 3, 4) {}

  static rl::ReplayDbOptions make_replay_options() {
    rl::ReplayDbOptions o;
    o.num_nodes = 3;
    o.pis_per_node = 4;
    o.ticks_per_observation = 2;
    return o;
  }

  MockAdapter adapter;
  rl::ActionSpace space;
  std::vector<double> values{50.0};
  rl::ReplayDb replay;
  InterfaceDaemon daemon;
  StatusWire wire{daemon};
};

TEST_F(DaemonFixture, MonitoringAgentDeliversToReplayDb) {
  MonitoringAgent agent(1, 1, adapter, wire.channel);
  agent.sample(0);
  wire.drain(0);
  agent.sample(1);
  wire.drain(1);
  EXPECT_EQ(daemon.status_messages(), 2u);
  EXPECT_EQ(daemon.decode_errors(), 0u);
  auto pis = replay.status_at(1, 1);
  ASSERT_TRUE(pis.has_value());
  EXPECT_NEAR((*pis)[0], 0.5f, 1e-3f);  // value 50 / 100
  EXPECT_NEAR((*pis)[1], 0.1f, 1e-3f);  // node 1 / 10
}

TEST_F(DaemonFixture, AgentTracksBytesAndMessages) {
  MonitoringAgent agent(0, 0, adapter, wire.channel);
  agent.sample(0);
  agent.sample(1);
  EXPECT_EQ(agent.messages_sent(), 2u);
  EXPECT_GT(agent.bytes_sent(), 0u);
}

TEST_F(DaemonFixture, AllAgentsShareOneDaemon) {
  std::vector<std::unique_ptr<MonitoringAgent>> agents;
  for (std::size_t n = 0; n < 3; ++n) {
    agents.push_back(
        std::make_unique<MonitoringAgent>(n, n, adapter, wire.channel));
  }
  for (auto& a : agents) a->sample(0);
  wire.drain(0);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_TRUE(replay.status_at(0, n).has_value()) << n;
  }
}

TEST_F(DaemonFixture, MalformedMessageCounted) {
  daemon.on_status_message({0xFF, 0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_EQ(daemon.decode_errors(), 1u);
}

TEST_F(DaemonFixture, UnknownNodeRejected) {
  std::vector<std::uint8_t> msg;
  util::put_varint(msg, 99);  // node 99 of 3
  util::put_varint(msg, 0);
  util::put_varint(msg, 0);
  daemon.on_status_message(msg);
  EXPECT_EQ(daemon.decode_errors(), 1u);
}

TEST_F(DaemonFixture, RewardRecorded) {
  daemon.on_reward(7, 0.42);
  EXPECT_DOUBLE_EQ(*replay.reward_at(7), 0.42);
}

TEST_F(DaemonFixture, SuggestedActionAppliesAndBroadcasts) {
  ControlAgent ca0(0, adapter), ca1(1, adapter);
  daemon.register_control_agent(0, &ca0);
  daemon.register_control_agent(0, &ca1);
  const std::size_t recorded = daemon.route_suggested_action(3, 1);
  EXPECT_EQ(recorded, 1u);
  EXPECT_DOUBLE_EQ(values[0], 55.0);
  EXPECT_DOUBLE_EQ(adapter.current_parameters()[0], 55.0);
  EXPECT_EQ(ca0.actions_applied(), 1u);
  EXPECT_EQ(ca1.actions_applied(), 1u);
  EXPECT_EQ(*replay.action_at(3), 1u);
  EXPECT_EQ(daemon.actions_broadcast(), 1u);
}

TEST_F(DaemonFixture, NullActionRecordedNotBroadcast) {
  ControlAgent ca(0, adapter);
  daemon.register_control_agent(0, &ca);
  daemon.route_suggested_action(4, 0);
  EXPECT_EQ(*replay.action_at(4), 0u);
  EXPECT_EQ(ca.actions_applied(), 0u);
  EXPECT_EQ(daemon.actions_broadcast(), 0u);
}

TEST_F(DaemonFixture, VetoedActionDegradesToNull) {
  daemon.action_checker(0).add_rule(
      "knob <= 52", [](const std::vector<double>& v) { return v[0] <= 52.0; });
  ControlAgent ca(0, adapter);
  daemon.register_control_agent(0, &ca);
  const std::size_t recorded = daemon.route_suggested_action(5, 1);
  EXPECT_EQ(recorded, 0u);                   // vetoed -> NULL
  EXPECT_DOUBLE_EQ(values[0], 50.0);         // unchanged
  EXPECT_EQ(ca.actions_applied(), 0u);
  EXPECT_EQ(*replay.action_at(5), 0u);
  EXPECT_EQ(daemon.action_checker(0).vetoed_actions(), 1u);
}

TEST_F(DaemonFixture, ControlAgentAppliesDirectly) {
  ControlAgent ca(2, adapter);
  EXPECT_EQ(ca.node(), 2u);
  ca.on_action_message({33.0});
  EXPECT_DOUBLE_EQ(adapter.current_parameters()[0], 33.0);
}

// ---------------------------------------------------------------------------
// Decode-error accounting
// ---------------------------------------------------------------------------

TEST_F(DaemonFixture, EmptyMessageCounted) {
  daemon.on_status_message({});
  EXPECT_EQ(daemon.decode_errors(), 1u);
  EXPECT_EQ(daemon.status_messages(), 1u);
}

TEST_F(DaemonFixture, TruncatedPayloadCounted) {
  // A valid header (node 1, tick 0) claiming 3 entries but carrying none.
  std::vector<std::uint8_t> msg;
  util::put_varint(msg, 1);  // node
  util::put_varint(msg, 0);  // tick
  util::put_varint(msg, 3);  // count, then nothing
  daemon.on_status_message(msg);
  EXPECT_EQ(daemon.decode_errors(), 1u);
  // Nothing reached the replay DB.
  EXPECT_FALSE(replay.status_at(0, 1).has_value());
}

TEST_F(DaemonFixture, DecodeErrorsDoNotPoisonLaterMessages) {
  MonitoringAgent agent(2, 2, adapter, wire.channel);
  daemon.on_status_message({0xFF, 0xFF, 0xFF, 0xFF, 0xFF});
  agent.sample(0);
  wire.drain(0);
  EXPECT_EQ(daemon.decode_errors(), 1u);
  EXPECT_TRUE(replay.status_at(0, 2).has_value());
}

// ---------------------------------------------------------------------------
// Sharded fan-in (multi-domain daemon)
// ---------------------------------------------------------------------------

struct ShardedDaemonFixture : public ::testing::Test {
  ShardedDaemonFixture()
      : adapter_a(2, 4),
        adapter_b(3, 4),
        // Domain layout: a = nodes [0,2) actions [1,3), b = nodes [2,5)
        // actions [3,5); both have one "knob" parameter.
        domain_a(0, "", adapter_a, throughput_objective(), 0, 1, 0),
        domain_b(1, "", adapter_b, throughput_objective(), 2, 3, 1),
        replay(make_replay_options(), nullptr),
        daemon(replay, {domain_shard(domain_a), domain_shard(domain_b)}, 5,
               4) {}

  static rl::ReplayDbOptions make_replay_options() {
    rl::ReplayDbOptions o;
    o.num_nodes = 5;  // both domains
    o.pis_per_node = 4;
    o.ticks_per_observation = 2;
    return o;
  }

  MockAdapter adapter_a;
  MockAdapter adapter_b;
  ControlDomain domain_a;
  ControlDomain domain_b;
  rl::ReplayDb replay;
  InterfaceDaemon daemon;
  StatusWire wire{daemon};
};

TEST_F(ShardedDaemonFixture, RoutesStatusByGlobalNode) {
  // A monitoring agent for domain b's local node 1 ships as global node 3.
  MonitoringAgent agent(1, 3, adapter_b, wire.channel);
  agent.sample(0);
  wire.drain(0);
  EXPECT_EQ(daemon.decode_errors(), 0u);
  auto pis = replay.status_at(0, 3);
  ASSERT_TRUE(pis.has_value());
  EXPECT_NEAR((*pis)[1], 0.1f, 1e-3f);  // local node 1 / 10 in the payload
  EXPECT_FALSE(replay.status_at(0, 1).has_value());
}

TEST_F(ShardedDaemonFixture, RejectsNodesBeyondEveryShard) {
  std::vector<std::uint8_t> msg;
  util::put_varint(msg, 5);  // first id past domain b's slice
  util::put_varint(msg, 0);
  util::put_varint(msg, 0);
  daemon.on_status_message(msg);
  EXPECT_EQ(daemon.decode_errors(), 1u);
}

TEST_F(ShardedDaemonFixture, RoutesActionToOwningDomainSlice) {
  ControlAgent ca_a(0, adapter_a);
  ControlAgent ca_b(0, adapter_b);
  daemon.register_control_agent(0, &ca_a);
  daemon.register_control_agent(1, &ca_b);

  // Global action 3 = domain b's local action 1 (+step on its knob).
  const std::size_t recorded = daemon.route_suggested_action(7, 3);
  EXPECT_EQ(recorded, 3u);
  EXPECT_DOUBLE_EQ(domain_b.param_values()[0], 55.0);
  EXPECT_DOUBLE_EQ(domain_a.param_values()[0], 50.0);  // untouched
  EXPECT_EQ(ca_b.actions_applied(), 1u);
  EXPECT_EQ(ca_a.actions_applied(), 0u);
  EXPECT_DOUBLE_EQ(adapter_b.current_parameters()[0], 55.0);
  EXPECT_DOUBLE_EQ(adapter_a.current_parameters()[0], 50.0);
  EXPECT_EQ(*replay.action_at(7), 3u);  // recorded under the composite index
}

TEST_F(ShardedDaemonFixture, NullActionRecordedForShardZero) {
  const std::size_t recorded = daemon.route_suggested_action(2, 0);
  EXPECT_EQ(recorded, 0u);
  EXPECT_EQ(*replay.action_at(2), 0u);
  EXPECT_EQ(daemon.actions_broadcast(), 0u);
}

TEST_F(ShardedDaemonFixture, RejectsOutOfRangeShardIndices) {
  // Indexing another domain's checker or agent list out of range used to
  // read shards_ unchecked; now it must throw with the shard count.
  ControlAgent ca(0, adapter_a);
  EXPECT_THROW(daemon.action_checker(2), std::out_of_range);
  EXPECT_THROW(daemon.register_control_agent(7, &ca), std::out_of_range);
  try {
    daemon.action_checker(9);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 9"), std::string::npos) << what;
    EXPECT_NE(what.find("2 shards"), std::string::npos) << what;
  }
  // In-range indices still work.
  daemon.register_control_agent(1, &ca);
  EXPECT_NO_THROW(daemon.action_checker(1));
}

TEST_F(ShardedDaemonFixture, VetoIsPerDomain) {
  // Domain b's checker vetoes everything; domain a stays tunable.
  daemon.action_checker(1).add_rule(
      "frozen", [](const std::vector<double>&) { return false; });
  EXPECT_EQ(daemon.route_suggested_action(1, 3), 0u);  // b's slice -> vetoed
  EXPECT_DOUBLE_EQ(domain_b.param_values()[0], 50.0);
  EXPECT_EQ(*replay.action_at(1), 0u);
  EXPECT_EQ(daemon.route_suggested_action(2, 1), 1u);  // a's slice passes
  EXPECT_DOUBLE_EQ(domain_a.param_values()[0], 55.0);
  EXPECT_EQ(daemon.action_checker(1).vetoed_actions(), 1u);
  EXPECT_EQ(daemon.action_checker(0).vetoed_actions(), 0u);
}

// ---------------------------------------------------------------------------
// Control-network mode (daemon + agents over a bus transport)
// ---------------------------------------------------------------------------

/// One domain (2 nodes) behind a configurable transport; agents publish
/// into the daemon's inbox and action broadcasts ride a shard channel.
struct TransportedDaemonFixture : public ::testing::Test {
  void wire(const bus::TransportOptions& topts) {
    transport = bus::make_transport(topts);
    daemon = std::make_unique<InterfaceDaemon>(
        replay, std::vector<DaemonShard>{domain_shard(domain)}, 2, 4,
        transport.get());
    for (std::size_t n = 0; n < 2; ++n) {
      agents.push_back(std::make_unique<MonitoringAgent>(
          n, n, adapter, *daemon->inbox()));
      controls.push_back(std::make_unique<ControlAgent>(n, adapter));
      daemon->register_control_agent(0, controls.back().get());
    }
  }

  static rl::ReplayDbOptions make_replay_options() {
    rl::ReplayDbOptions o;
    o.num_nodes = 2;
    o.pis_per_node = 4;
    o.ticks_per_observation = 2;
    return o;
  }

  MockAdapter adapter{2, 4};
  ControlDomain domain{0, "", adapter, throughput_objective(), 0, 1, 0};
  rl::ReplayDb replay{make_replay_options(), nullptr};
  std::unique_ptr<bus::Transport> transport;
  std::unique_ptr<InterfaceDaemon> daemon;
  std::vector<std::unique_ptr<MonitoringAgent>> agents;
  std::vector<std::unique_ptr<ControlAgent>> controls;
};

TEST_F(TransportedDaemonFixture, SyncChannelMatchesDirectDelivery) {
  wire(bus::TransportOptions{});  // sync
  for (std::int64_t t = 0; t < 3; ++t) {
    for (auto& agent : agents) agent->sample(t);
    EXPECT_EQ(daemon->drain_status(t), 2u);
    EXPECT_TRUE(replay.status_at(t, 0).has_value());
    EXPECT_TRUE(replay.status_at(t, 1).has_value());
  }
  const bus::ChannelStats stats = daemon->bus_stats();
  EXPECT_EQ(stats.published, 6u);
  EXPECT_EQ(stats.delivered, 6u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.late, 0u);
}

TEST_F(TransportedDaemonFixture, LatePiMessagesSurfaceWhenTheyArrive) {
  bus::TransportOptions topts;
  topts.kind = bus::TransportKind::kSim;
  topts.latency_ticks = 2;
  wire(topts);
  for (auto& agent : agents) agent->sample(0);
  EXPECT_EQ(daemon->drain_status(0), 0u);  // still in flight
  EXPECT_FALSE(replay.status_at(0, 0).has_value());
  EXPECT_EQ(daemon->drain_status(1), 0u);
  EXPECT_EQ(daemon->drain_status(2), 2u);  // lands two ticks late
  EXPECT_TRUE(replay.status_at(0, 0).has_value());  // recorded under send tick
  EXPECT_TRUE(replay.status_at(0, 1).has_value());
  EXPECT_EQ(daemon->bus_stats().late, 2u);
}

TEST_F(TransportedDaemonFixture, DroppedPiMessagesNeverReachTheReplayDb) {
  bus::TransportOptions topts;
  topts.kind = bus::TransportKind::kSim;
  topts.latency_ticks = 0;
  topts.drop = 0.5;
  topts.seed = 13;
  wire(topts);
  const std::int64_t ticks = 40;
  for (std::int64_t t = 0; t < ticks; ++t) {
    for (auto& agent : agents) agent->sample(t);
    daemon->drain_status(t);
  }
  const bus::ChannelStats stats = daemon->bus_stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.published, 2u * ticks - stats.dropped);
  // Every delivered message decoded cleanly: skipping the encode on a
  // dropped tick keeps the differential codec in sync across the gap.
  EXPECT_EQ(daemon->decode_errors(), 0u);
  std::size_t present = 0;
  for (std::int64_t t = 0; t < ticks; ++t) {
    for (std::size_t n = 0; n < 2; ++n) {
      if (replay.status_at(t, n).has_value()) ++present;
    }
  }
  EXPECT_EQ(present, static_cast<std::size_t>(stats.delivered));
}

TEST_F(TransportedDaemonFixture, DelayedActionLandsOnALaterTick) {
  bus::TransportOptions topts;
  topts.kind = bus::TransportKind::kSim;
  topts.latency_ticks = 2;
  wire(topts);
  // Action 1 = +step on the knob. The domain-side (daemon's view)
  // parameter vector updates immediately; the target system only sees it
  // when the broadcast lands two ticks later.
  EXPECT_EQ(daemon->route_suggested_action(5, 1), 1u);
  EXPECT_DOUBLE_EQ(domain.param_values()[0], 55.0);
  EXPECT_DOUBLE_EQ(adapter.current_parameters()[0], 50.0);
  EXPECT_EQ(daemon->drain_actions(5), 0u);
  EXPECT_EQ(daemon->drain_actions(6), 0u);
  EXPECT_DOUBLE_EQ(adapter.current_parameters()[0], 50.0);
  EXPECT_EQ(daemon->drain_actions(7), 1u);
  EXPECT_DOUBLE_EQ(adapter.current_parameters()[0], 55.0);
  EXPECT_EQ(controls[0]->actions_applied(), 1u);
  EXPECT_EQ(controls[1]->actions_applied(), 1u);
}

}  // namespace
}  // namespace capes::core
