#pragma once
// DRL Engine (§3.4): owns the deep Q-network and runs training steps
// against random minibatches from the Replay DB, concurrently with (in
// simulation: interleaved with) action computation. Also keeps the
// prediction-error history that Figure 5 plots.
//
// Training can run inline (kSync, the historical behaviour) or on a
// dedicated learner thread (kAsync): train_tick packs minibatches into
// the slots of a util::SlotQueue and submits them; the learner trains,
// publishes an immutable acting-weight snapshot, and releases the slot.
// Minibatch sampling stays on the caller's thread in both modes, so
// the RNG stream — and therefore every weight update — is bit-identical
// between sync and async.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "rl/dqn.hpp"
#include "rl/epsilon.hpp"
#include "rl/replay_db.hpp"
#include "util/rng.hpp"
#include "util/slot_queue.hpp"

namespace capes::util {
class ThreadPool;
}

namespace capes::waldb {
class Database;
}

namespace capes::core {

/// Where train_step runs: inline on the control thread, or on the
/// dedicated learner thread.
enum class LearnerMode { kSync, kAsync };

/// Learner specs (and capes.learner.mode conf values), indexed by mode.
inline constexpr std::string_view kLearnerModeNames[] = {"sync", "async"};

struct DrlEngineOptions {
  rl::DqnOptions dqn;
  rl::EpsilonSchedule::Options epsilon;
  std::size_t minibatch_size = 32;      // Table 1
  std::size_t train_steps_per_tick = 1;
  double eval_epsilon = 0.05;           ///< exploration when frozen/tuning
  std::uint64_t seed = 97;
  LearnerMode learner_mode = LearnerMode::kSync;
  /// Every N training ticks the learner persists its full state (weights,
  /// optimizer moments, step counter) through the checkpoint store. 0
  /// disables checkpointing. Applies to both learner modes.
  std::size_t checkpoint_ticks = 0;
  /// Learner job slots (rounded up to a power of two, and to at least
  /// train_steps_per_tick + 1 so one tick's batches plus a checkpoint job
  /// always fit).
  std::size_t learner_queue_depth = 8;
};

class DrlEngine {
 public:
  explicit DrlEngine(DrlEngineOptions opts, rl::ReplayDb& replay);
  ~DrlEngine();

  DrlEngine(const DrlEngine&) = delete;
  DrlEngine& operator=(const DrlEngine&) = delete;

  /// Pick the action for tick `t` from the observation ending at `t`.
  /// Uses the annealing epsilon while training, `eval_epsilon` otherwise.
  /// Returns the NULL action when the observation is incomplete.
  /// The epsilon anneal advances one step per *training-mode* call, so
  /// baseline/tuned measurement phases never consume exploration budget.
  /// In async mode this first waits for all enqueued training to publish,
  /// so the acting weights match what sync mode would have used.
  std::size_t compute_action(std::int64_t t, bool training,
                             util::ThreadPool* pool = nullptr);

  /// Training-mode ticks seen so far (the epsilon schedule's clock).
  std::int64_t training_ticks() const { return training_ticks_; }

  /// Run up to `train_steps_per_tick` training steps (skipped while the
  /// replay DB cannot fill a minibatch). Returns steps actually run
  /// (async: enqueued — they are guaranteed to run before the next
  /// compute_action or sync point). With a pool, minibatch assembly and
  /// the sync-mode GEMM panels fan out; the RNG stream and the resulting
  /// weights are pool-independent. The async learner always trains
  /// pool-less, which by that same property yields identical weights.
  std::size_t train_tick(util::ThreadPool* pool = nullptr);

  /// §3.6: the Interface Daemon calls this when a new workload starts.
  /// The bump applies from the current training tick.
  void notify_workload_change();

  /// Block until every enqueued learner job has been trained and its
  /// weights published. No-op in sync mode or when idle.
  void sync_with_learner() const;

  /// End-of-phase barrier: sync_with_learner(), so reports and
  /// fingerprints taken after a phase reflect all of its training.
  void drain_learner() const { sync_with_learner(); }

  LearnerMode learner_mode() const { return opts_.learner_mode; }
  bool learner_thread_running() const { return learner_.joinable(); }

  /// Install the durable store for periodic learner checkpoints (waldb
  /// table "learner", key 0, one WAL frame like every put). Must
  /// outlive the engine. Null detaches.
  void set_checkpoint_store(waldb::Database* db);

  /// Load the most recent checkpoint written through the store, restoring
  /// weights, optimizer state, train-step counter and the epsilon clock.
  /// Returns false (engine untouched) when no checkpoint exists or it is
  /// malformed. Call before training resumes — not concurrency-safe.
  bool restore_checkpoint(waldb::Database& db);

  std::size_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_acquire);
  }

  rl::Dqn& dqn() { return *dqn_; }
  const rl::Dqn& dqn() const { return *dqn_; }
  const rl::EpsilonSchedule& epsilon() const { return epsilon_; }
  double current_epsilon(std::int64_t t, bool training) const;

  /// (train_step index, |prediction error|) samples, one per step.
  /// Async-safe: waits for in-flight training first.
  const std::vector<std::pair<std::size_t, float>>& prediction_error_log() const {
    sync_with_learner();
    return prediction_errors_;
  }
  const std::vector<std::pair<std::size_t, float>>& loss_log() const {
    sync_with_learner();
    return losses_;
  }
  std::size_t total_train_steps() const {
    sync_with_learner();
    return dqn_->train_steps();
  }

  /// CRC32 of the online-network weights after all in-flight training.
  std::uint32_t weights_fingerprint() const {
    sync_with_learner();
    return dqn_->weights_fingerprint();
  }

  const DrlEngineOptions& options() const { return opts_; }

  /// Heap allocations observed inside the engine's per-tick hot region
  /// (minibatch assembly + inline training; the bounded log appends stay
  /// outside the bracket). The counter is process-wide during the
  /// bracketed window, so it is meaningful in the audited configuration
  /// (sync learner, no worker pool) and always 0 when the counting
  /// allocator hook is not linked into the binary.
  std::uint64_t hot_path_allocations() const { return hot_path_allocs_; }

 private:
  /// One unit of learner work, a recycled slot of jobs_.
  struct TrainJob {
    enum class Kind { kTrain, kCheckpoint };
    Kind kind = Kind::kTrain;
    rl::Minibatch batch;
    /// Epsilon clock captured at enqueue time (checkpoint jobs persist it;
    /// the learner must not read the live counter).
    std::int64_t training_ticks = 0;
  };

  void start_learner();
  void stop_learner();
  void learner_loop();
  std::size_t train_tick_sync(util::ThreadPool* pool);
  std::size_t train_tick_async(util::ThreadPool* pool);
  void maybe_checkpoint_sync();
  void write_checkpoint(std::int64_t ticks_at_capture);

  DrlEngineOptions opts_;
  rl::ReplayDb& replay_;
  std::unique_ptr<rl::Dqn> dqn_;
  rl::EpsilonSchedule epsilon_;
  std::int64_t training_ticks_ = 0;
  util::Rng rng_;
  std::vector<float> obs_buffer_;
  rl::Minibatch sync_batch_;  ///< sync-mode minibatch scratch, capacity reused
  std::uint64_t hot_path_allocs_ = 0;
  /// Appended by whichever thread trains (main in sync, learner in
  /// async); readers go through sync_with_learner() first.
  std::vector<std::pair<std::size_t, float>> prediction_errors_;
  std::vector<std::pair<std::size_t, float>> losses_;

  // --- async learner state ---------------------------------------------
  /// Main thread -> learner; only the async learner uses it.
  util::SlotQueue<TrainJob> jobs_;
  std::thread learner_;
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> completed_{0};

  // --- checkpointing -----------------------------------------------------
  waldb::Database* checkpoint_db_ = nullptr;
  std::size_t ticks_since_checkpoint_ = 0;
  std::atomic<std::size_t> checkpoints_written_{0};
};

}  // namespace capes::core
