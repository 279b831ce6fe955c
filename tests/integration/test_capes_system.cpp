// CapesSystem integration over the mock adapter: exercises the full
// Figure 1 loop (monitor -> replay DB -> engine -> checker -> control)
// without the Lustre simulator.

#include "core/capes_system.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "../core/mock_adapter.hpp"

namespace capes::core {
namespace {

using testing::MockAdapter;

CapesOptions small_options() {
  CapesOptions o;
  o.replay.ticks_per_observation = 3;
  o.engine.dqn.hidden_size = 16;
  o.engine.minibatch_size = 4;
  o.engine.epsilon.anneal_ticks = 50;
  o.engine.dqn.learning_rate = 1e-3f;
  o.reward_scale_mbs = 100.0;
  return o;
}

TEST(CapesSystem, WiresOneAgentPerNode) {
  sim::Simulator sim;
  MockAdapter adapter(4, 3);
  CapesSystem capes(sim, adapter, small_options());
  EXPECT_EQ(capes.domain(0).monitoring_agents().size(), 4u);
  EXPECT_EQ(capes.action_space().num_actions(), 3u);  // 1 param
}

TEST(CapesSystem, BaselineCollectsPerTickSamples) {
  sim::Simulator sim;
  MockAdapter adapter(2, 3);
  CapesSystem capes(sim, adapter, small_options());
  const auto result = capes.run_baseline(20);
  EXPECT_EQ(result.throughput.count(), 20u);
  EXPECT_EQ(result.rewards.size(), 20u);
  EXPECT_EQ(result.start_tick, 0);
  EXPECT_EQ(result.end_tick, 20);
  EXPECT_EQ(result.train_steps, 0u);
  // Baseline keeps the initial parameter values.
  EXPECT_DOUBLE_EQ(adapter.current_parameters()[0], 50.0);
  // Mock baseline throughput = 100 - |50 - 80| = 70.
  EXPECT_NEAR(result.analyze().mean, 70.0, 1e-6);
}

TEST(CapesSystem, SamplingTickFeedsReplayDb) {
  sim::Simulator sim;
  MockAdapter adapter(2, 3);
  CapesSystem capes(sim, adapter, small_options());
  capes.run_baseline(10);
  EXPECT_EQ(capes.replay().tick_count(), 10u);
  EXPECT_TRUE(capes.replay().status_at(5, 0).has_value());
  EXPECT_TRUE(capes.replay().reward_at(5).has_value());
  EXPECT_EQ(*capes.replay().action_at(5), 0u);  // NULL actions in baseline
}

TEST(CapesSystem, TrainingRunsTrainSteps) {
  sim::Simulator sim;
  MockAdapter adapter(2, 3);
  CapesSystem capes(sim, adapter, small_options());
  const auto result = capes.run_training(30);
  EXPECT_GT(result.train_steps, 0u);
  EXPECT_GT(capes.engine().total_train_steps(), 0u);
}

TEST(CapesSystem, TrainingChangesParameters) {
  sim::Simulator sim;
  MockAdapter adapter(2, 3);
  CapesSystem capes(sim, adapter, small_options());
  capes.run_training(50);  // epsilon starts at 1.0: random walk
  EXPECT_GT(adapter.set_calls, 0);
}

TEST(CapesSystem, TicksAccumulateAcrossPhases) {
  sim::Simulator sim;
  MockAdapter adapter(2, 3);
  CapesSystem capes(sim, adapter, small_options());
  capes.run_training(10);
  EXPECT_EQ(capes.current_tick(), 10);
  capes.run_baseline(5);
  EXPECT_EQ(capes.current_tick(), 15);
}

TEST(CapesSystem, SimulatedTimeAdvancesOneTickPerSample) {
  sim::Simulator sim;
  MockAdapter adapter(1, 3);
  CapesOptions o = small_options();
  o.sampling_tick_s = 2.0;
  CapesSystem capes(sim, adapter, o);
  capes.run_baseline(5);
  EXPECT_EQ(sim.now(), sim::seconds(10.0));
}

TEST(CapesSystem, MonitoringBytesCounted) {
  sim::Simulator sim;
  MockAdapter adapter(3, 3);
  CapesSystem capes(sim, adapter, small_options());
  capes.run_baseline(10);
  EXPECT_GT(capes.monitoring_bytes_sent(), 0u);
}

TEST(CapesSystem, ResetParametersRestoresDefaults) {
  sim::Simulator sim;
  MockAdapter adapter(2, 3);
  CapesSystem capes(sim, adapter, small_options());
  adapter.set_parameters({95.0});
  capes.reset_parameters();
  EXPECT_DOUBLE_EQ(adapter.current_parameters()[0], 50.0);
}

TEST(CapesSystem, LearnsMockOptimum) {
  // The end-to-end control loop must find the mock's inverted-V optimum at
  // knob = 80 (start 50) and hold near it during tuned evaluation.
  sim::Simulator sim;
  MockAdapter adapter(2, 3);
  CapesOptions o = small_options();
  o.engine.epsilon.anneal_ticks = 200;
  o.engine.train_steps_per_tick = 2;
  o.engine.dqn.gamma = 0.9f;
  o.engine.dqn.learning_rate = 2e-3f;
  o.engine.eval_epsilon = 0.0;
  CapesSystem capes(sim, adapter, o);
  const auto base = capes.run_baseline(30).analyze();
  capes.run_training(800);
  const auto tuned = capes.run_tuned(80).analyze();
  EXPECT_GT(tuned.mean, base.mean + 5.0);
  EXPECT_NEAR(adapter.current_parameters()[0], 80.0, 20.0);
}

TEST(CapesSystem, CheckpointRoundTrip) {
  sim::Simulator sim;
  MockAdapter adapter(2, 3);
  CapesSystem capes(sim, adapter, small_options());
  capes.run_training(40);
  const std::string path =
      (std::filesystem::temp_directory_path() / "capes_sys_ckpt.bin").string();
  ASSERT_TRUE(capes.save_model(path));

  sim::Simulator sim2;
  MockAdapter adapter2(2, 3);
  CapesSystem capes2(sim2, adapter2, small_options());
  ASSERT_TRUE(capes2.load_model(path));
  std::filesystem::remove(path);
}

TEST(CapesSystem, DurableReplayDbWritten) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "capes_sys_db").string();
  std::filesystem::remove_all(dir);
  {
    sim::Simulator sim;
    MockAdapter adapter(2, 3);
    CapesOptions o = small_options();
    o.replay_db_dir = dir;
    CapesSystem capes(sim, adapter, o);
    capes.run_baseline(10);
    ASSERT_NE(capes.database(), nullptr);
    EXPECT_GT(capes.database()->disk_bytes(), 0u);
  }
  // Destructor checkpointed; a fresh DB can load it.
  waldb::Database db;
  ASSERT_TRUE(db.open(dir));
  EXPECT_NE(db.find_table("status"), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(CapesSystem, CustomObjectiveUsed) {
  sim::Simulator sim;
  MockAdapter adapter(1, 3);
  // Latency-only objective: reward should be negative of latency scale.
  CapesSystem capes(sim, adapter, small_options(),
                    [](const PerfSample& s) { return -s.avg_latency_ms; });
  const auto result = capes.run_baseline(5);
  for (double r : result.rewards) EXPECT_LT(r, 0.0);
}

TEST(CapesSystem, WorkloadChangeNotificationBumpsEpsilon) {
  sim::Simulator sim;
  MockAdapter adapter(1, 3);
  CapesOptions o = small_options();
  o.engine.epsilon.anneal_ticks = 10;
  CapesSystem capes(sim, adapter, o);
  capes.run_training(50);  // epsilon fully annealed to 0.05
  capes.notify_workload_change();
  EXPECT_NEAR(capes.engine().current_epsilon(capes.current_tick(), true), 0.2,
              1e-9);
}

}  // namespace
}  // namespace capes::core
