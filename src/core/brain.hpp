#pragma once
// The learner side of CAPES (§3.3): the Interface Daemon, the Replay DB
// and the DRL Engine — "the brain". CapesSystem drives one through the
// Brain interface, picking once: a LocalBrain in process, or a BrainClient
// (remote_brain.hpp) linked to a capes_daemond whose BrainService hosts a
// LocalBrain. Either way a tick runs the one LocalBrain step, so a
// loopback tcp run is bit-identical to the in-process one.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/channel.hpp"
#include "capture/trace_meta.hpp"
#include "core/drl_engine.hpp"
#include "core/interface_daemon.hpp"
#include "core/monitoring_agent.hpp"
#include "rl/replay_db.hpp"

namespace capes::util {
class ThreadPool;
}  // namespace capes::util

namespace capes::core {

/// The §A.4 run phases. kIdle only ever appears as "no phase running".
/// The values are also the phase bytes on the tcp wire and in captures.
enum class RunPhase { kIdle, kTraining, kBaseline, kTuned };

/// Lower-case phase label ("training", "baseline", "tuned", "idle").
const char* phase_name(RunPhase phase);

/// What closing one tick produced.
struct TickOutcome {
  std::size_t suggested = 0;          ///< the engine's composite action index
  std::size_t recorded = 0;           ///< post-veto (0 = NULL action)
  std::size_t train_steps = 0;        ///< minibatch steps this tick
  std::size_t total_train_steps = 0;  ///< steps over the brain's lifetime
};

class Brain {
 public:
  using PayloadRecycler = InterfaceDaemon::PayloadRecycler;

  Brain() = default;
  Brain(const Brain&) = delete;
  Brain& operator=(const Brain&) = delete;
  virtual ~Brain() = default;

  /// The PI inbox the Monitoring Agents publish into.
  virtual PiChannel& inbox() = 0;
  /// Take in every PI message due by tick `t`. Returns messages taken.
  virtual std::size_t flush_status(std::int64_t t) = 0;
  /// Tick `t`'s objective output (throughput and latency only ride along
  /// to mirror the capture's reward record).
  virtual void send_reward(std::int64_t t, double reward,
                           double throughput_sum, double latency_mean) = 0;
  /// Close tick `t`: act (training and tuned phases; else NULL), route,
  /// check, apply and record, deliver due broadcasts, train (training).
  virtual TickOutcome end_tick(std::int64_t t, RunPhase mode) = 0;
  /// Phase markers. end_phase is the learner barrier: the fingerprint and
  /// step count then reflect all of the phase's training.
  virtual void begin_phase(std::int64_t t, RunPhase phase) = 0;
  virtual bool end_phase(std::int64_t t, RunPhase phase) = 0;
  /// Reset the parameter vectors actions are checked against.
  virtual void reset_params(std::int64_t t) = 0;
  /// §3.6 workload-change hint (the engine's epsilon bump).
  virtual void workload_change(std::int64_t t) = 0;

  /// Control-network counters (PI inbox + action hops).
  virtual bus::ChannelStats stats() const = 0;
  /// CRC32 of the online-network weights and cumulative minibatch steps.
  virtual std::uint32_t weights_fingerprint() const = 0;
  virtual std::size_t total_train_steps() const = 0;
  /// Model checkpoint (§A.4); false on I/O error or a remote model.
  virtual bool save_model(const std::string& path) const = 0;
  virtual bool load_model(const std::string& path) = 0;

  /// Flight recorder (nullable; must outlive the brain while set).
  virtual void set_capture(capture::WireLogWriter* writer) = 0;
  /// Drained PI payload buffers go back to the agent that encoded them.
  virtual void set_payload_recycler(PayloadRecycler recycler) = 0;
  /// Allocations on the brain's audited share of the tick path.
  virtual std::uint64_t hot_path_allocations() const { return 0; }
};

/// The Replay DB and DRL Engine configuration a brain is built from.
struct BrainOptions {
  rl::ReplayDbOptions replay;
  DrlEngineOptions engine;
};

/// The brain a capture or Hello meta describes: its topology, every
/// replay/engine hyperparameter and both seeds, with the sync learner
/// (bit-identical weights by the engine's sync==async guarantee) and
/// checkpointing off. The one from-meta path of BrainService and
/// TraceReplayer.
BrainOptions brain_options_from_meta(const capture::TraceMeta& meta);
/// The inverse: the meta a brain built from `opts` is described by. The
/// run-level fields (num_domains, sampling_tick_s, the starting weights
/// fingerprint) keep their defaults for the caller to fill.
capture::TraceMeta meta_from_brain_options(const BrainOptions& opts);

class LocalBrain final : public Brain {
 public:
  /// `shards` and `transport` as for InterfaceDaemon; `pool` (nullable)
  /// fans out the drain, the action and training; a non-empty `db_dir`
  /// opens a durable waldb store for the Replay DB and learner
  /// checkpoints, resuming from the latest. Pointees outlive the brain.
  LocalBrain(const BrainOptions& opts, std::vector<DaemonShard> shards,
             bus::Transport* transport = nullptr,
             util::ThreadPool* pool = nullptr, const std::string& db_dir = "");
  ~LocalBrain() override;

  rl::ReplayDb& replay() { return *replay_; }
  InterfaceDaemon& daemon() { return *daemon_; }
  DrlEngine& engine() { return *engine_; }
  /// The durable store, when db_dir opened one (else nullptr).
  waldb::Database* database() { return db_.get(); }

  /// Requires a transport.
  PiChannel& inbox() override { return *daemon_->inbox(); }
  std::size_t flush_status(std::int64_t t) override {
    return daemon_->drain_status(t, pool_);
  }
  void send_reward(std::int64_t t, double reward, double, double) override {
    daemon_->on_reward(t, reward);
  }
  TickOutcome end_tick(std::int64_t t, RunPhase mode) override;
  void begin_phase(std::int64_t, RunPhase) override {}
  bool end_phase(std::int64_t, RunPhase) override {
    engine_->drain_learner();
    return true;
  }
  void reset_params(std::int64_t) override { daemon_->reset_parameters(); }
  void workload_change(std::int64_t) override {
    engine_->notify_workload_change();
  }
  bus::ChannelStats stats() const override { return daemon_->bus_stats(); }
  std::uint32_t weights_fingerprint() const override {
    return engine_->weights_fingerprint();
  }
  std::size_t total_train_steps() const override {
    return engine_->total_train_steps();
  }
  bool save_model(const std::string& path) const override {
    return engine_->dqn().save_checkpoint(path);
  }
  bool load_model(const std::string& path) override {
    return engine_->dqn().load_checkpoint(path);
  }
  void set_capture(capture::WireLogWriter* writer) override {
    daemon_->set_capture(writer);
  }
  void set_payload_recycler(PayloadRecycler recycler) override {
    daemon_->set_payload_recycler(std::move(recycler));
  }
  std::uint64_t hot_path_allocations() const override {
    return hot_path_allocs_ + engine_->hot_path_allocations();
  }

 private:
  // Destroyed in reverse: the Replay DB and the engine hold the store,
  // the daemon and the engine hold the Replay DB.
  std::unique_ptr<waldb::Database> db_;
  std::unique_ptr<rl::ReplayDb> replay_;
  std::unique_ptr<InterfaceDaemon> daemon_;
  std::unique_ptr<DrlEngine> engine_;
  util::ThreadPool* pool_;
  std::size_t train_steps_ = 0;  ///< steps end_tick ran
  std::uint64_t hot_path_allocs_ = 0;  ///< compute + route
};

}  // namespace capes::core
