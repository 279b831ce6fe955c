#include "core/drl_engine.hpp"

#include <algorithm>
#include <cassert>

#include "util/alloc_hook.hpp"
#include "util/serialize.hpp"
#include "waldb/database.hpp"

namespace capes::core {

namespace {
/// waldb location of the learner checkpoint.
constexpr const char* kCheckpointTable = "learner";
constexpr std::int64_t kCheckpointKey = 0;
constexpr std::uint32_t kCheckpointMagic = 0x4c43504bu;  // "LCPK"
constexpr std::uint32_t kCheckpointVersion = 1;
}  // namespace

DrlEngine::DrlEngine(DrlEngineOptions opts, rl::ReplayDb& replay)
    : opts_(opts),
      replay_(replay),
      epsilon_(opts.epsilon),
      rng_(opts.seed),
      // One tick's train jobs plus a checkpoint job must always fit, so
      // the producer never deadlocks waiting for its own consumer.
      jobs_(std::max(opts.learner_queue_depth,
                     opts.train_steps_per_tick + 1)) {
  opts_.dqn.observation_size = replay_.observation_size();
  dqn_ = std::make_unique<rl::Dqn>(opts_.dqn);
  obs_buffer_.resize(replay_.observation_size());
}

DrlEngine::~DrlEngine() { stop_learner(); }

double DrlEngine::current_epsilon(std::int64_t t, bool training) const {
  return training ? epsilon_.value(t) : opts_.eval_epsilon;
}

std::size_t DrlEngine::compute_action(std::int64_t t, bool training,
                                      util::ThreadPool* pool) {
  // Async: act only on fully published weights. After this wait the
  // acting snapshot equals the online network sync mode would read, so
  // the chosen action is bit-identical.
  sync_with_learner();
  const double eps = current_epsilon(training ? training_ticks_ : t, training);
  if (training) ++training_ticks_;
  // Without a complete observation we can still explore randomly (early
  // training); otherwise fall back to the NULL action.
  if (!replay_.build_observation(t, obs_buffer_.data())) {
    if (training && rng_.chance(eps)) {
      return rng_.pick_index(opts_.dqn.num_actions);
    }
    return 0;
  }
  return dqn_->select_action(obs_buffer_, eps, rng_, pool);
}

std::size_t DrlEngine::train_tick(util::ThreadPool* pool) {
  return opts_.learner_mode == LearnerMode::kAsync ? train_tick_async(pool)
                                                   : train_tick_sync(pool);
}

std::size_t DrlEngine::train_tick_sync(util::ThreadPool* pool) {
  std::size_t ran = 0;
  for (std::size_t i = 0; i < opts_.train_steps_per_tick; ++i) {
    // The tally brackets minibatch assembly + the training step — the
    // per-tick hot region. The (amortized, bounded) log appends below
    // stay outside it by design.
    util::AllocTally tally;
    if (!replay_.construct_minibatch_into(sync_batch_, opts_.minibatch_size,
                                          rng_, /*max_rounds=*/64, pool)) {
      break;
    }
    const rl::TrainStepResult r = dqn_->train_step(sync_batch_, pool);
    hot_path_allocs_ += tally.delta();
    prediction_errors_.emplace_back(dqn_->train_steps(), r.prediction_error);
    losses_.emplace_back(dqn_->train_steps(), r.loss);
    ++ran;
  }
  if (ran > 0) maybe_checkpoint_sync();
  return ran;
}

std::size_t DrlEngine::train_tick_async(util::ThreadPool* pool) {
  start_learner();
  std::size_t ran = 0;
  for (std::size_t i = 0; i < opts_.train_steps_per_tick; ++i) {
    // Waits only when sustained enqueue without a compute_action has
    // every slot in flight.
    TrainJob* job = jobs_.acquire();
    // Sampling happens here, on the control thread, with the same rng_
    // stream position sync mode would have — the learner only trains.
    util::AllocTally tally;
    if (!replay_.construct_minibatch_into(job->batch, opts_.minibatch_size,
                                          rng_, /*max_rounds=*/64, pool)) {
      jobs_.give_back(job);
      break;
    }
    hot_path_allocs_ += tally.delta();
    job->kind = TrainJob::Kind::kTrain;
    jobs_.submit(job);
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    ++ran;
  }
  if (ran > 0 && opts_.checkpoint_ticks > 0 &&
      ++ticks_since_checkpoint_ >= opts_.checkpoint_ticks &&
      checkpoint_db_ != nullptr) {
    ticks_since_checkpoint_ = 0;
    TrainJob* job = jobs_.acquire();
    job->kind = TrainJob::Kind::kCheckpoint;
    job->training_ticks = training_ticks_;
    jobs_.submit(job);
    enqueued_.fetch_add(1, std::memory_order_relaxed);
  }
  return ran;
}

void DrlEngine::sync_with_learner() const {
  if (!learner_.joinable()) return;
  const std::uint64_t target = enqueued_.load(std::memory_order_relaxed);
  std::uint64_t done = completed_.load(std::memory_order_acquire);
  while (done < target) {
    completed_.wait(done, std::memory_order_acquire);
    done = completed_.load(std::memory_order_acquire);
  }
}

void DrlEngine::start_learner() {
  if (learner_.joinable()) return;
  // Publish the initial acting snapshot before the thread exists, so the
  // acting path never reads the online network once the learner may be
  // mutating it.
  dqn_->publish_acting();
  learner_ = std::thread([this] { learner_loop(); });
}

void DrlEngine::stop_learner() {
  if (!learner_.joinable()) return;
  sync_with_learner();
  jobs_.close();
  learner_.join();
  // Quiescent again: fold the snapshot away so sync-mode reads (tests,
  // reports) see the online network directly.
  dqn_->clear_acting();
}

void DrlEngine::learner_loop() {
  while (TrainJob* job = jobs_.take()) {
    if (job->kind == TrainJob::Kind::kTrain) {
      // Pool-less on purpose: training weights are pool-independent, and
      // a private thread must not contend for the control-path pool.
      const rl::TrainStepResult r = dqn_->train_step(job->batch, nullptr);
      prediction_errors_.emplace_back(dqn_->train_steps(), r.prediction_error);
      losses_.emplace_back(dqn_->train_steps(), r.loss);
    } else {
      write_checkpoint(job->training_ticks);
    }
    // Publish before signalling completion: whoever observes completed_
    // caught up (acquire) is guaranteed the snapshot that includes this
    // step.
    dqn_->publish_acting();
    jobs_.release(job);
    completed_.fetch_add(1, std::memory_order_release);
    completed_.notify_all();
  }
}

void DrlEngine::notify_workload_change() {
  epsilon_.notify_workload_change(training_ticks_);
}

void DrlEngine::set_checkpoint_store(waldb::Database* db) {
  checkpoint_db_ = db;
}

void DrlEngine::maybe_checkpoint_sync() {
  if (opts_.checkpoint_ticks == 0 || checkpoint_db_ == nullptr) return;
  if (++ticks_since_checkpoint_ < opts_.checkpoint_ticks) return;
  ticks_since_checkpoint_ = 0;
  write_checkpoint(training_ticks_);
}

void DrlEngine::write_checkpoint(std::int64_t ticks_at_capture) {
  if (checkpoint_db_ == nullptr) return;
  util::BinaryWriter w;
  w.put_u32(kCheckpointMagic);
  w.put_u32(kCheckpointVersion);
  w.put_i64(ticks_at_capture);
  dqn_->save_state(w);
  checkpoint_db_->put(kCheckpointTable, kCheckpointKey, w.take());
  checkpoint_db_->flush();
  checkpoints_written_.fetch_add(1, std::memory_order_release);
}

bool DrlEngine::restore_checkpoint(waldb::Database& db) {
  const auto blob = db.get(kCheckpointTable, kCheckpointKey);
  if (!blob) return false;
  util::BinaryReader r(*blob);
  auto magic = r.get_u32();
  auto version = r.get_u32();
  if (!magic || *magic != kCheckpointMagic || !version ||
      *version != kCheckpointVersion) {
    return false;
  }
  auto ticks = r.get_i64();
  if (!ticks) return false;
  if (!dqn_->load_state(r)) return false;
  training_ticks_ = *ticks;
  return true;
}

}  // namespace capes::core
