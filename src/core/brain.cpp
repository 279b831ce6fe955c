#include "core/brain.hpp"

#include "util/alloc_hook.hpp"
#include "waldb/database.hpp"

namespace capes::core {

const char* phase_name(RunPhase phase) {
  switch (phase) {
    case RunPhase::kTraining: return "training";
    case RunPhase::kBaseline: return "baseline";
    case RunPhase::kTuned: return "tuned";
    case RunPhase::kIdle: break;
  }
  return "idle";
}

// Every TraceMeta field a brain is built from, beside the BrainOptions
// member it carries: the one list both directions walk.
#define CAPES_BRAIN_META_FIELDS(X)                           \
  X(num_nodes, replay.num_nodes)                             \
  X(pis_per_node, replay.pis_per_node)                       \
  X(ticks_per_observation, replay.ticks_per_observation)     \
  X(missing_tolerance, replay.missing_tolerance)             \
  X(max_ticks_retained, replay.max_ticks_retained)           \
  X(engine_seed, engine.seed)                                \
  X(dqn_seed, engine.dqn.seed)                               \
  X(num_actions, engine.dqn.num_actions)                     \
  X(num_hidden_layers, engine.dqn.num_hidden_layers)         \
  X(hidden_size, engine.dqn.hidden_size)                     \
  X(gamma, engine.dqn.gamma)                                 \
  X(learning_rate, engine.dqn.learning_rate)                 \
  X(target_update_alpha, engine.dqn.target_update_alpha)     \
  X(loss_kind, engine.dqn.loss)                              \
  X(use_target_network, engine.dqn.use_target_network)       \
  X(use_double_dqn, engine.dqn.use_double_dqn)               \
  X(activation, engine.dqn.activation)                       \
  X(epsilon_initial, engine.epsilon.initial)                 \
  X(epsilon_final, engine.epsilon.final_value)               \
  X(epsilon_anneal_ticks, engine.epsilon.anneal_ticks)       \
  X(epsilon_bump_value, engine.epsilon.bump_value)           \
  X(epsilon_bump_ticks, engine.epsilon.bump_ticks)           \
  X(minibatch_size, engine.minibatch_size)                   \
  X(train_steps_per_tick, engine.train_steps_per_tick)       \
  X(eval_epsilon, engine.eval_epsilon)

BrainOptions brain_options_from_meta(const capture::TraceMeta& meta) {
  BrainOptions opts;
#define CAPES_READ(field, member) \
  opts.member = static_cast<decltype(opts.member)>(meta.field);
  CAPES_BRAIN_META_FIELDS(CAPES_READ)
#undef CAPES_READ
  return opts;
}

capture::TraceMeta meta_from_brain_options(const BrainOptions& opts) {
  capture::TraceMeta meta;
#define CAPES_WRITE(field, member) \
  meta.field = static_cast<decltype(meta.field)>(opts.member);
  CAPES_BRAIN_META_FIELDS(CAPES_WRITE)
#undef CAPES_WRITE
  return meta;
}

#undef CAPES_BRAIN_META_FIELDS

LocalBrain::LocalBrain(const BrainOptions& opts,
                       std::vector<DaemonShard> shards,
                       bus::Transport* transport, util::ThreadPool* pool,
                       const std::string& db_dir)
    : pool_(pool) {
  if (!db_dir.empty()) {
    db_ = std::make_unique<waldb::Database>();
    if (!db_->open(db_dir)) db_.reset();
  }
  replay_ = std::make_unique<rl::ReplayDb>(opts.replay, db_.get());
  daemon_ = std::make_unique<InterfaceDaemon>(
      *replay_, std::move(shards), opts.replay.num_nodes,
      opts.replay.pis_per_node, transport);
  engine_ = std::make_unique<DrlEngine>(opts.engine, *replay_);
  if (db_) {
    // Durable learner checkpoints ride the same WAL-framed store as the
    // replay tables; a restarted tuner resumes mid-training. The replay
    // cache itself is rebuilt from fresh samples, not reloaded.
    engine_->set_checkpoint_store(db_.get());
    engine_->restore_checkpoint(*db_);
  }
}

LocalBrain::~LocalBrain() {
  if (db_) db_->checkpoint();
}

TickOutcome LocalBrain::end_tick(std::int64_t t, RunPhase mode) {
  TickOutcome out;
  const bool training = mode == RunPhase::kTraining;
  util::AllocTally alloc_tally;
  if (training || mode == RunPhase::kTuned) {
    out.suggested = engine_->compute_action(t, training, pool_);
  }
  out.recorded = daemon_->route_suggested_action(t, out.suggested);
  hot_path_allocs_ += alloc_tally.delta();
  // Deliver checked-action broadcasts due by this tick (the one just
  // routed under sync; under sim possibly earlier delayed ones — a
  // delayed action reaches the target system on the tick it lands).
  // Outside the allocation bracket: applying parameters runs the target
  // system's setters, which may schedule simulator events.
  daemon_->drain_actions(t);
  // Training steps (the DRL Engine trains continuously, §3.4).
  if (training) {
    out.train_steps = engine_->train_tick(pool_);
    train_steps_ += out.train_steps;
  }
  out.total_train_steps = train_steps_;
  return out;
}

}  // namespace capes::core
