#include "core/drl_engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "util/frame.hpp"
#include "waldb/database.hpp"

namespace capes::core {
namespace {

rl::ReplayDbOptions replay_options() {
  rl::ReplayDbOptions o;
  o.num_nodes = 2;
  o.pis_per_node = 3;
  o.ticks_per_observation = 3;
  return o;
}

DrlEngineOptions engine_options() {
  DrlEngineOptions o;
  o.dqn.num_actions = 3;
  o.dqn.hidden_size = 8;
  o.dqn.learning_rate = 1e-3f;
  o.minibatch_size = 4;
  o.train_steps_per_tick = 2;
  o.epsilon.anneal_ticks = 100;
  return o;
}

void fill_replay(rl::ReplayDb& db, std::int64_t ticks) {
  for (std::int64_t t = 0; t < ticks; ++t) {
    for (std::size_t n = 0; n < 2; ++n) {
      db.record_status(t, n, {0.1f * static_cast<float>(t), 0.2f, 0.3f});
    }
    db.record_action(t, static_cast<std::size_t>(t) % 3);
    db.record_reward(t, 0.5);
  }
}

TEST(DrlEngine, ObservationSizeInferredFromReplay) {
  rl::ReplayDb replay(replay_options());
  DrlEngine engine(engine_options(), replay);
  EXPECT_EQ(engine.dqn().options().observation_size, 2u * 3u * 3u);
}

TEST(DrlEngine, TrainSkipsWhenReplayEmpty) {
  rl::ReplayDb replay(replay_options());
  DrlEngine engine(engine_options(), replay);
  EXPECT_EQ(engine.train_tick(), 0u);
  EXPECT_EQ(engine.total_train_steps(), 0u);
}

TEST(DrlEngine, TrainRunsConfiguredSteps) {
  rl::ReplayDb replay(replay_options());
  fill_replay(replay, 30);
  DrlEngine engine(engine_options(), replay);
  EXPECT_EQ(engine.train_tick(), 2u);
  EXPECT_EQ(engine.total_train_steps(), 2u);
  EXPECT_EQ(engine.prediction_error_log().size(), 2u);
  EXPECT_EQ(engine.loss_log().size(), 2u);
}

TEST(DrlEngine, EpsilonAnnealing) {
  rl::ReplayDb replay(replay_options());
  DrlEngine engine(engine_options(), replay);
  EXPECT_DOUBLE_EQ(engine.current_epsilon(0, true), 1.0);
  EXPECT_NEAR(engine.current_epsilon(100, true), 0.05, 1e-9);
  EXPECT_DOUBLE_EQ(engine.current_epsilon(100, false), 0.05);  // eval epsilon
}

TEST(DrlEngine, WorkloadChangeBumpsEpsilon) {
  rl::ReplayDb replay(replay_options());
  DrlEngine engine(engine_options(), replay);
  // Advance past the anneal (100 ticks) so the base epsilon is 0.05.
  for (int i = 0; i < 200; ++i) engine.compute_action(i, true);
  EXPECT_EQ(engine.training_ticks(), 200);
  engine.notify_workload_change();
  EXPECT_NEAR(engine.current_epsilon(engine.training_ticks(), true), 0.2, 1e-9);
}

TEST(DrlEngine, EpsilonClockOnlyAdvancesInTraining) {
  rl::ReplayDb replay(replay_options());
  DrlEngine engine(engine_options(), replay);
  // Measurement-mode calls must not consume exploration budget.
  for (int i = 0; i < 500; ++i) engine.compute_action(i, false);
  EXPECT_EQ(engine.training_ticks(), 0);
  EXPECT_DOUBLE_EQ(engine.current_epsilon(engine.training_ticks(), true), 1.0);
  engine.compute_action(500, true);
  EXPECT_EQ(engine.training_ticks(), 1);
}

TEST(DrlEngine, ActionInRangeWithObservation) {
  rl::ReplayDb replay(replay_options());
  fill_replay(replay, 10);
  DrlEngine engine(engine_options(), replay);
  for (int i = 0; i < 10; ++i) {
    const std::size_t a = engine.compute_action(9, false);
    EXPECT_LT(a, 3u);
  }
}

TEST(DrlEngine, NoObservationEvalReturnsNull) {
  rl::ReplayDb replay(replay_options());
  DrlEngine engine(engine_options(), replay);
  EXPECT_EQ(engine.compute_action(5, false), 0u);
}

TEST(DrlEngine, NoObservationTrainingStillExplores) {
  rl::ReplayDb replay(replay_options());
  DrlEngineOptions o = engine_options();
  o.epsilon.initial = 1.0;
  DrlEngine engine(o, replay);
  // With epsilon 1.0 the engine should produce random (not always NULL)
  // actions even before observations exist.
  int non_null = 0;
  for (int i = 0; i < 50; ++i) {
    non_null += engine.compute_action(0, true) != 0;
  }
  EXPECT_GT(non_null, 10);
}

TEST(DrlEngine, GreedyEvalIsDeterministic) {
  rl::ReplayDb replay(replay_options());
  fill_replay(replay, 10);
  DrlEngineOptions o = engine_options();
  o.eval_epsilon = 0.0;
  DrlEngine engine(o, replay);
  const std::size_t first = engine.compute_action(9, false);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine.compute_action(9, false), first);
  }
}

TEST(DrlEngine, PredictionErrorLogGrowsMonotonically) {
  rl::ReplayDb replay(replay_options());
  fill_replay(replay, 30);
  DrlEngine engine(engine_options(), replay);
  engine.train_tick();
  engine.train_tick();
  const auto& log = engine.prediction_error_log();
  ASSERT_EQ(log.size(), 4u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_GT(log[i].first, log[i - 1].first);
  }
}

TEST(DrlEngine, AsyncLearnerMatchesSyncBitExactly) {
  // The tentpole invariant: minibatch sampling stays on the control
  // thread and compute_action waits for published weights, so the async
  // learner replays exactly the sync training trajectory.
  rl::ReplayDb replay_sync(replay_options());
  rl::ReplayDb replay_async(replay_options());
  fill_replay(replay_sync, 30);
  fill_replay(replay_async, 30);

  DrlEngineOptions sync_opts = engine_options();
  DrlEngineOptions async_opts = engine_options();
  async_opts.learner_mode = LearnerMode::kAsync;

  DrlEngine sync_engine(sync_opts, replay_sync);
  DrlEngine async_engine(async_opts, replay_async);

  for (int tick = 0; tick < 12; ++tick) {
    const std::size_t a = sync_engine.compute_action(20 + tick % 5, true);
    const std::size_t b = async_engine.compute_action(20 + tick % 5, true);
    EXPECT_EQ(a, b) << "tick " << tick;
    EXPECT_EQ(sync_engine.train_tick(), async_engine.train_tick());
  }
  EXPECT_TRUE(async_engine.learner_thread_running());
  EXPECT_EQ(sync_engine.total_train_steps(), async_engine.total_train_steps());
  EXPECT_EQ(sync_engine.weights_fingerprint(),
            async_engine.weights_fingerprint());
  ASSERT_EQ(sync_engine.loss_log().size(), async_engine.loss_log().size());
  for (std::size_t i = 0; i < sync_engine.loss_log().size(); ++i) {
    EXPECT_EQ(sync_engine.loss_log()[i], async_engine.loss_log()[i]) << i;
  }
}

TEST(DrlEngine, AsyncLearnerRunToRunDeterministic) {
  std::uint32_t fingerprints[2];
  for (int run = 0; run < 2; ++run) {
    rl::ReplayDb replay(replay_options());
    fill_replay(replay, 30);
    DrlEngineOptions opts = engine_options();
    opts.learner_mode = LearnerMode::kAsync;
    DrlEngine engine(opts, replay);
    for (int tick = 0; tick < 10; ++tick) {
      engine.compute_action(25, true);
      engine.train_tick();
    }
    fingerprints[run] = engine.weights_fingerprint();
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(DrlEngine, LearnerThreadStartsLazilyAndStopsOnDestruction) {
  rl::ReplayDb replay(replay_options());
  fill_replay(replay, 30);
  DrlEngineOptions opts = engine_options();
  opts.learner_mode = LearnerMode::kAsync;
  DrlEngine engine(opts, replay);
  EXPECT_EQ(engine.learner_mode(), LearnerMode::kAsync);
  EXPECT_FALSE(engine.learner_thread_running());
  engine.train_tick();
  EXPECT_TRUE(engine.learner_thread_running());
  // Destructor joins the learner; the test passing (no hang, no TSan
  // report) is the assertion.
}

TEST(DrlEngine, SyncModeNeverStartsLearnerThread) {
  rl::ReplayDb replay(replay_options());
  fill_replay(replay, 30);
  DrlEngine engine(engine_options(), replay);
  engine.train_tick();
  EXPECT_FALSE(engine.learner_thread_running());
}

TEST(DrlEngine, CheckpointWrittenAtCadenceAndRestoredExactly) {
  auto db = waldb::Database::in_memory();
  rl::ReplayDb replay(replay_options());
  fill_replay(replay, 30);

  DrlEngineOptions opts = engine_options();
  opts.checkpoint_ticks = 3;
  DrlEngine engine(opts, replay);
  engine.set_checkpoint_store(&db);
  for (int tick = 0; tick < 7; ++tick) {
    engine.compute_action(25, true);
    engine.train_tick();
  }
  EXPECT_EQ(engine.checkpoints_written(), 2u);  // after ticks 3 and 6

  // A fresh engine restored from the store resumes with the checkpointed
  // weights, optimizer state and epsilon clock.
  rl::ReplayDb replay2(replay_options());
  fill_replay(replay2, 30);
  DrlEngine resumed(opts, replay2);
  EXPECT_TRUE(resumed.restore_checkpoint(db));
  EXPECT_EQ(resumed.training_ticks(), 6);
  EXPECT_EQ(resumed.total_train_steps(),
            6u * engine_options().train_steps_per_tick);

  // And restoring garbage fails without touching the engine.
  auto empty_db = waldb::Database::in_memory();
  const auto before = resumed.weights_fingerprint();
  EXPECT_FALSE(resumed.restore_checkpoint(empty_db));
  EXPECT_EQ(resumed.weights_fingerprint(), before);
}

TEST(DrlEngine, ForgedCheckpointInTheWalIsRejectedWithoutThrowing) {
  auto db = waldb::Database::in_memory();
  rl::ReplayDb replay(replay_options());
  fill_replay(replay, 30);
  DrlEngineOptions opts = engine_options();
  opts.checkpoint_ticks = 1;
  DrlEngine engine(opts, replay);
  engine.set_checkpoint_store(&db);
  engine.compute_action(25, true);
  engine.train_tick();
  auto blob = db.get("learner", 0);
  ASSERT_TRUE(blob.has_value());

  // LCPK header (16 bytes), Dqn state header (16), online net size (8),
  // then the online Mlp: forge its first f32 count to wrap a u64 check.
  constexpr std::size_t kMlpAt = 40;
  std::uint8_t* mlp = blob->data() + kMlpAt;
  const std::size_t name_at = 13 + 8 * std::size_t{util::get_le32(mlp + 9)};
  const std::size_t count_at = name_at + 4 + util::get_le32(mlp + name_at);
  ASSERT_LT(kMlpAt + count_at + 8, blob->size());
  util::put_le64(mlp + count_at, (std::uint64_t{1} << 62) + 1);

  // Store it as a valid-CRC WAL record and recover it from disk.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("capes_forged_lcpk_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  {
    waldb::Database durable;
    ASSERT_TRUE(durable.open(dir));
    ASSERT_TRUE(durable.put("learner", 0, *blob));
    ASSERT_TRUE(durable.flush());
  }
  waldb::Database recovered;
  ASSERT_TRUE(recovered.open(dir));
  rl::ReplayDb replay2(replay_options());
  DrlEngine resumed(opts, replay2);
  const auto before = resumed.weights_fingerprint();
  bool restored = true;
  EXPECT_NO_THROW(restored = resumed.restore_checkpoint(recovered));
  EXPECT_FALSE(restored);
  EXPECT_EQ(resumed.weights_fingerprint(), before);
  std::filesystem::remove_all(dir);
}

TEST(DrlEngine, AsyncCheckpointMatchesSyncCheckpoint) {
  // The checkpoint job rides the work ring behind the batches of its
  // tick, so the persisted state equals what sync mode persists.
  std::vector<std::uint8_t> blobs[2];
  for (int mode = 0; mode < 2; ++mode) {
    auto db = waldb::Database::in_memory();
    rl::ReplayDb replay(replay_options());
    fill_replay(replay, 30);
    DrlEngineOptions opts = engine_options();
    opts.checkpoint_ticks = 4;
    opts.learner_mode = mode == 0 ? LearnerMode::kSync : LearnerMode::kAsync;
    DrlEngine engine(opts, replay);
    engine.set_checkpoint_store(&db);
    for (int tick = 0; tick < 9; ++tick) {
      engine.compute_action(25, true);
      engine.train_tick();
    }
    engine.drain_learner();
    auto blob = db.get("learner", 0);
    ASSERT_TRUE(blob.has_value()) << "mode " << mode;
    blobs[mode] = *blob;
  }
  EXPECT_EQ(blobs[0], blobs[1]);
}

}  // namespace
}  // namespace capes::core
