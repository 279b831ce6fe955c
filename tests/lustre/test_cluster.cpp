#include "lustre/cluster.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

namespace capes::lustre {
namespace {

ClusterOptions quiet_opts() {
  ClusterOptions o;
  o.disk.service_noise = 0.0;
  o.network.jitter_fraction = 0.0;
  return o;
}

TEST(Cluster, TopologyMatchesOptions) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  EXPECT_EQ(cluster.num_clients(), 5u);
  EXPECT_EQ(cluster.num_servers(), 4u);
  EXPECT_EQ(cluster.num_nodes(), 5u);  // monitored nodes = clients
  EXPECT_EQ(cluster.pis_per_node(), Cluster::kPisPerNode);
  EXPECT_EQ(cluster.network().num_nodes(), 9u);
}

TEST(Cluster, TunableParametersMatchPaper) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  const auto params = cluster.tunable_parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "max_rpcs_in_flight");
  EXPECT_EQ(params[1].name, "io_rate_limit");
  EXPECT_DOUBLE_EQ(params[0].initial_value, 8.0);  // Lustre default
}

TEST(Cluster, SetParametersAppliesToAllClients) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  cluster.set_parameters({64.0, 1000.0});
  for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_DOUBLE_EQ(cluster.client(i).cwnd(), 64.0);
    EXPECT_DOUBLE_EQ(cluster.client(i).rate_limit(), 1000.0);
  }
  const auto current = cluster.current_parameters();
  EXPECT_DOUBLE_EQ(current[0], 64.0);
  EXPECT_DOUBLE_EQ(current[1], 1000.0);
}

TEST(Cluster, WriteFlowsThroughToDisk) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  bool done = false;
  cluster.client(0).write(1, 0, 1 << 20, [&] { done = true; });
  sim.run_until(sim::seconds(2));
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.total_write_bytes(), 1u << 20);
  // Exactly one server (stripe 0) did the work.
  std::uint64_t disk_bytes = 0;
  for (std::size_t j = 0; j < cluster.num_servers(); ++j) {
    disk_bytes += cluster.server(j).disk().bytes_written();
  }
  EXPECT_EQ(disk_bytes, 1u << 20);
}

TEST(Cluster, ReadRoundTrip) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  bool done = false;
  cluster.client(2).read(7, 0, 2ull << 20, [&] { done = true; });
  sim.run_until(sim::seconds(2));
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.total_read_bytes(), 2ull << 20);
}

TEST(Cluster, MetadataServedByMds) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    cluster.client(1).metadata_op([&] { ++done; });
  }
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(done, 10);
  EXPECT_EQ(cluster.server(0).metadata_served(), 10u);
}

TEST(Cluster, ObservationShapeAndRanges) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  cluster.client(0).write(1, 0, 4 << 20, nullptr);
  sim.run_until(sim::seconds(1));
  const auto pis = cluster.collect_observation(0);
  ASSERT_EQ(pis.size(), Cluster::kPisPerNode);
  for (float v : pis) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, -0.01f);
    EXPECT_LE(v, 5.0f);  // log-compressed indicators stay small
  }
}

TEST(Cluster, ObservationThroughputPiReflectsTraffic) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  (void)cluster.collect_observation(0);  // reset the window
  bool done = false;
  cluster.client(0).write(1, 0, 8 << 20, [&] { done = true; });
  sim.run_until(sim::seconds(1));
  const auto pis = cluster.collect_observation(0);
  EXPECT_GT(pis[3], 0.01f);  // write MB/s PI
  const auto idle = cluster.collect_observation(1);
  EXPECT_FLOAT_EQ(idle[3], 0.0f);
  EXPECT_TRUE(done);
}

TEST(Cluster, PerformanceSampleMeasuresWindow) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  (void)cluster.sample_performance();
  cluster.client(0).write(1, 0, 4 << 20, nullptr);
  sim.run_until(sim::seconds(1));
  const auto s = cluster.sample_performance();
  EXPECT_NEAR(s.write_mbs, 4.0 * (1 << 20) / 1e6, 0.8);
  EXPECT_GT(s.avg_latency_ms, 0.0);
  // Next window with no traffic reports ~0.
  sim.run_until(sim::seconds(2));
  const auto s2 = cluster.sample_performance();
  EXPECT_NEAR(s2.write_mbs, 0.0, 0.01);
}

TEST(Cluster, FragmentationSlowsSequentialWrites) {
  auto throughput_with = [](double frag) {
    ClusterOptions o;
    o.disk.service_noise = 0.0;
    o.fragmentation = frag;
    // A single streaming client saturates its gigabit uplink before the
    // disks; lift the network so the disk-side effect is observable.
    o.network.link_bandwidth_mbs = 5000.0;
    o.network.fabric_bandwidth_mbs = 5000.0;
    sim::Simulator sim;
    Cluster cluster(sim, o);
    // Stream sequential writes for 5 simulated seconds.
    std::function<void(std::uint64_t)> loop = [&](std::uint64_t off) {
      cluster.client(0).write(1, off, 1 << 20,
                              [&, off] { loop(off + (1 << 20)); });
    };
    loop(0);
    sim.run_until(sim::seconds(5));
    return cluster.total_write_bytes();
  };
  EXPECT_GT(static_cast<double>(throughput_with(0.0)),
            1.2 * static_cast<double>(throughput_with(0.5)));
}

TEST(Cluster, DiskFullnessSlowsRandomIo) {
  auto bytes_with = [](double fullness) {
    ClusterOptions o;
    o.disk.service_noise = 0.0;
    o.disk_fullness = fullness;
    sim::Simulator sim;
    Cluster cluster(sim, o);
    util::Rng rng(3);
    std::function<void()> loop = [&] {
      cluster.client(0).write(1, (rng.next_u64() % (1 << 12)) << 20, 65536,
                              [&] { loop(); });
    };
    loop();
    sim.run_until(sim::seconds(5));
    return cluster.total_write_bytes();
  };
  EXPECT_GT(bytes_with(0.0), bytes_with(1.0));
}

TEST(Cluster, RetransmitsAfterSustainedOverload) {
  ClusterOptions o = quiet_opts();
  o.rpc_timeout = sim::seconds(1);
  sim::Simulator sim;
  Cluster cluster(sim, o);
  cluster.set_parameters({256.0, 4000.0});
  util::Rng rng(5);
  // Saturating random writes from all clients. The test owns the loops
  // and each captures a raw pointer to itself, so none keeps itself alive.
  std::vector<std::function<void()>> loops(cluster.num_clients());
  for (std::size_t c = 0; c < loops.size(); ++c) {
    std::function<void()>* loop = &loops[c];
    *loop = [&cluster, c, loop, &rng] {
      cluster.client(c).write(c + 1, (rng.next_u64() % (1 << 14)) << 16, 65536,
                              [loop] { (*loop)(); });
    };
    for (int i = 0; i < 50; ++i) (*loop)();
  }
  sim.run_until(sim::seconds(20));
  EXPECT_GT(cluster.total_retransmits(), 0u);
}

TEST(Cluster, CumulativeThroughput) {
  sim::Simulator sim;
  Cluster cluster(sim, quiet_opts());
  cluster.client(0).write(1, 0, 10 << 20, nullptr);
  sim.run_until(sim::seconds(2));
  EXPECT_GT(cluster.cumulative_throughput_mbs(), 0.0);
}

}  // namespace
}  // namespace capes::lustre
