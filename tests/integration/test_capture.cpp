// Flight-recorder integration: a seeded live run captured at the daemon
// boundary, replayed into a fresh daemon + engine, must reproduce the
// live training fingerprint bit-for-bit (the round-trip guarantee).
// Also pinned here: torn-tail tolerance, config-overlay (diff) replays
// on identical traffic, and the capture hot path staying allocation-free
// once warm.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "capture/wire_log_reader.hpp"
#include "core/capes_system.hpp"
#include "core/presets.hpp"
#include "core/trace_replay.hpp"
#include "lustre/cluster.hpp"
#include "util/alloc_hook.hpp"
#include "workload/random_rw.hpp"

namespace capes {
namespace {

class CaptureIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("capes_capint_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "trace.cap").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

core::EvaluationPreset capture_preset() {
  auto p = core::fast_preset(7);
  p.capes.engine.epsilon.anneal_ticks = 60;
  return p;
}

struct LiveRun {
  std::uint32_t fingerprint = 0;
  std::size_t train_steps = 0;
  std::uint64_t records = 0;
};

/// Seeded train + tuned session with the flight recorder on.
LiveRun run_captured(const std::string& path, int train_ticks = 100,
                     int tuned_ticks = 40) {
  auto preset = capture_preset();
  preset.capes.capture_path = path;
  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));
  capes.run_training(train_ticks);
  if (tuned_ticks > 0) capes.run_tuned(tuned_ticks);
  LiveRun live;
  live.fingerprint = capes.engine().weights_fingerprint();
  live.train_steps = capes.engine().total_train_steps();
  auto* writer = capes.capture_writer();
  EXPECT_NE(writer, nullptr);
  EXPECT_TRUE(writer->close());
  EXPECT_EQ(writer->records_dropped(), 0u);
  live.records = writer->records_logged();
  return live;
}

TEST_F(CaptureIntegration, RoundTripFingerprintIsBitIdentical) {
  const LiveRun live = run_captured(path_);
  ASSERT_GT(live.train_steps, 0u);
  ASSERT_GT(live.records, 0u);

  core::TraceReplayer replayer;
  core::TraceReplayOptions opts;
  opts.speed = core::ReplaySpeed::kMax;
  std::string error;
  ASSERT_TRUE(replayer.open(path_, opts, &error)) << error;
  EXPECT_TRUE(replayer.fresh_weights_match());
  const auto report = replayer.run();

  EXPECT_EQ(report.read_stats.valid_records, live.records);
  EXPECT_FALSE(report.tail_truncated);
  EXPECT_EQ(report.decode_errors, 0u);
  // Every traced suggestion is re-derived identically: same seeds, same
  // replay DB contents, same RNG consumption order.
  EXPECT_EQ(report.action_mismatches, 0u);
  EXPECT_EQ(report.total_train_steps, live.train_steps);
  EXPECT_EQ(report.weights_fingerprint, live.fingerprint);
  // Both phases show up in the report with sane tick accounting.
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_EQ(report.phases[0].phase, core::RunPhase::kTraining);
  EXPECT_EQ(report.phases[0].ticks, 100);
  EXPECT_GT(report.phases[0].train_steps, 0u);
  EXPECT_EQ(report.phases[1].phase, core::RunPhase::kTuned);
  EXPECT_EQ(report.phases[1].ticks, 40);
}

TEST_F(CaptureIntegration, ReplayIsRepeatable) {
  run_captured(path_, 60, 0);
  auto replay_fp = [&] {
    core::TraceReplayer replayer;
    std::string error;
    EXPECT_TRUE(replayer.open(path_, {}, &error)) << error;
    return replayer.run().weights_fingerprint;
  };
  EXPECT_EQ(replay_fp(), replay_fp());
}

TEST_F(CaptureIntegration, TornTailReplaysValidPrefix) {
  const LiveRun live = run_captured(path_, 60, 0);
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 7);

  core::TraceReplayer replayer;
  std::string error;
  ASSERT_TRUE(replayer.open(path_, {}, &error)) << error;
  const auto report = replayer.run();
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_GE(report.read_stats.truncated_records, 1u);
  EXPECT_EQ(report.read_stats.valid_records, live.records - 1);
  EXPECT_GT(report.total_train_steps, 0u);
}

TEST_F(CaptureIntegration, ConfigOverlayDivergesOnIdenticalTraffic) {
  run_captured(path_, 80, 0);

  core::TraceReplayer base;
  std::string error;
  ASSERT_TRUE(base.open(path_, {}, &error)) << error;
  const auto base_report = base.run();

  // Same capture, harsher learning rate: the policy diverges, the
  // traffic (status/reward records, ticks) cannot.
  auto overlay = capture_preset().capes;
  overlay.engine.dqn.learning_rate = 0.05f;
  core::TraceReplayOptions opts;
  opts.config_overlay = &overlay;
  core::TraceReplayer diff;
  ASSERT_TRUE(diff.open(path_, opts, &error)) << error;
  const auto diff_report = diff.run();

  EXPECT_EQ(diff_report.status_records, base_report.status_records);
  EXPECT_EQ(diff_report.reward_records, base_report.reward_records);
  EXPECT_EQ(diff_report.action_records, base_report.action_records);
  ASSERT_EQ(diff_report.phases.size(), base_report.phases.size());
  for (std::size_t i = 0; i < diff_report.phases.size(); ++i) {
    EXPECT_EQ(diff_report.phases[i].ticks, base_report.phases[i].ticks);
  }
  EXPECT_NE(diff_report.weights_fingerprint, base_report.weights_fingerprint);
}

TEST_F(CaptureIntegration, CaptureFileRecordsAllHops) {
  run_captured(path_, 50, 0);
  capture::WireLogReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  std::uint64_t status = 0, reward = 0, action = 0, broadcast = 0;
  std::uint64_t phase_begin = 0, phase_end = 0;
  net::Frame rec;
  while (reader.next(&rec)) {
    switch (static_cast<capture::RecordType>(rec.type)) {
      case capture::RecordType::kStatus: ++status; break;
      case capture::RecordType::kReward: ++reward; break;
      case capture::RecordType::kAction: ++action; break;
      case capture::RecordType::kBroadcast: ++broadcast; break;
      case capture::RecordType::kPhaseBegin: ++phase_begin; break;
      case capture::RecordType::kPhaseEnd: ++phase_end; break;
      default: break;
    }
  }
  EXPECT_FALSE(reader.tail_truncated());
  // All three bus hops appear: PI status, checked-action broadcasts and
  // per-tick actions, plus the reward stream and phase markers.
  EXPECT_GT(status, 0u);
  EXPECT_EQ(reward, 50u);
  EXPECT_EQ(action, 50u);
  EXPECT_GT(broadcast, 0u);
  EXPECT_EQ(phase_begin, 1u);
  EXPECT_EQ(phase_end, 1u);
}

// With the recorder on, the warm capture path must stay allocation-free:
// records are copied into recycled slot capacity, never fresh heap.
TEST_F(CaptureIntegration, WarmCapturePathIsAllocationFree) {
  if (!util::allocation_hook_active()) {
    GTEST_SKIP() << "counting allocator hook not linked in";
  }
  auto preset = capture_preset();
  preset.capes.capture_path = path_;
  preset.capes.capture_ring = 16;  // tiny pool so every slot warms up
  preset.capes.engine.learner_mode = core::LearnerMode::kSync;
  preset.capes.worker_threads = 0;
  preset.capes.replay.max_ticks_retained = 64;

  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));

  capes.run_training(120);
  const std::uint64_t warm = capes.hot_path_allocations();
  capes.run_training(80);
  const std::uint64_t after = capes.hot_path_allocations();
  EXPECT_EQ(after - warm, 0u)
      << "capture-on tick path allocated " << (after - warm)
      << " times across 80 steady-state ticks";
}

}  // namespace
}  // namespace capes
