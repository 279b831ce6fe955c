#pragma once
// Discrete-event simulation engine, sharded per control domain. This
// engine hosts the simulated Lustre clusters that substitute for the
// paper's physical testbed.
//
// A Simulator owns one or more sim::EventQueue shards. With one shard
// (the default) it is exactly the original monolithic event loop. With
// N shards, independent control domains schedule onto their own queues
// and run_until()/run_for() advance every shard to the same target time
// — concurrently on a util::ThreadPool when one is passed — meeting a
// time-synced barrier at each sampling tick. Domains only interact
// through bus channel publishes between ticks, so per-domain event
// streams are identical to the serial interleaving and a sharded run is
// bit-identical to the single-queue one for a fixed seed.
//
// Scheduling routes to the right shard without the lustre/workload
// layers knowing shards exist:
//  * an event's follow-up schedules land in the shard executing it
//    (EventQueue::current(), a thread-local set while a queue runs);
//  * setup code outside event execution (cluster construction, workload
//    start) schedules into the shard bound via bind_shard(), shard 0
//    when nothing is bound.
// now() follows the same rule, so an executing event reads its shard's
// clock and barrier-time code reads the common tick boundary.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace capes::util {
class ThreadPool;
}

namespace capes::sim {

/// Event-queue simulator (a host of one or more EventQueue shards).
class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- sharding ----------------------------------------------------------

  /// Repartition the event space into `n` queues (n < 1 reads as 1).
  /// Only legal on a pristine simulator — before any event has been
  /// scheduled or the clock moved — because existing events cannot be
  /// reassigned to shards; misuse aborts (this codebase is
  /// exception-free).
  void configure_shards(std::size_t n);

  std::size_t num_shards() const { return shards_.size(); }
  EventQueue& shard(std::size_t i) { return *shards_[i]; }
  const EventQueue& shard(std::size_t i) const { return *shards_[i]; }

  /// Scoped default-shard binding for scheduling done outside event
  /// execution (cluster construction, workload start/switch, barrier-time
  /// parameter application). The binding is thread-local, so barrier code
  /// running on worker threads can bind without racing other threads;
  /// destruction restores the previous binding.
  class [[nodiscard]] ShardBinding {
   public:
    ~ShardBinding();
    ShardBinding(ShardBinding&& other) noexcept
        : active_(other.active_),
          previous_sim_(other.previous_sim_),
          previous_shard_(other.previous_shard_),
          previous_domain_(other.previous_domain_) {
      other.active_ = false;
    }
    ShardBinding(const ShardBinding&) = delete;
    ShardBinding& operator=(const ShardBinding&) = delete;
    ShardBinding& operator=(ShardBinding&&) = delete;

   private:
    friend class Simulator;
    ShardBinding() = default;  ///< inactive: destruction restores nothing
    ShardBinding(const Simulator* previous_sim, std::size_t previous_shard,
                 std::uint32_t previous_domain)
        : active_(true),
          previous_sim_(previous_sim),
          previous_shard_(previous_shard),
          previous_domain_(previous_domain) {}
    bool active_ = false;
    const Simulator* previous_sim_ = nullptr;
    std::size_t previous_shard_ = 0;
    std::uint32_t previous_domain_ = 0;
  };

  /// Bind `shard` as the target of out-of-event schedule_*() calls from
  /// this thread for the returned binding's lifetime; events scheduled
  /// through the binding carry `domain` as their tag (the control domain
  /// they belong to, for rate counting and shard migration). Aborts on
  /// an out-of-range shard.
  ShardBinding bind_shard(std::size_t shard, std::uint32_t domain = 0) const;

  /// An inactive binding (destruction restores nothing) for call sites
  /// that bind conditionally.
  static ShardBinding no_binding() { return {}; }

  // ---- the original single-queue API -------------------------------------

  /// The executing shard's clock inside an event; outside, the bound
  /// shard's clock when a binding is active, else the latest shard
  /// clock. At a barrier every shard sits on the same t_end, so all
  /// three reads agree; after a bare step() on a sharded simulator the
  /// latest-clock rule keeps now() monotonic (lagging shards catch up
  /// on the next run_until). Inline: this is the simulator's hottest
  /// read (every RPC in the cluster model calls it several times).
  TimeUs now() const {
    EventQueue* executing = EventQueue::current();
    if (executing != nullptr && executing->owner() == this) {
      return executing->now();
    }
    if (bound_sim_ == this) return shards_[bound_shard_]->now();
    TimeUs latest = shards_[0]->now();
    for (std::size_t i = 1; i < shards_.size(); ++i) {
      latest = std::max(latest, shards_[i]->now());
    }
    return latest;
  }

  /// Schedule `fn` at absolute time `t` (>= now, else it fires "now").
  /// From inside an event the follow-up inherits the event's shard and
  /// domain tag; outside, it lands in the bound shard tagged with the
  /// binding's domain (shard 0 / domain 0 when nothing is bound).
  void schedule_at(TimeUs t, Callback fn) {
    EventQueue* executing = EventQueue::current();
    if (executing != nullptr && executing->owner() == this) {
      executing->schedule_at(t, std::move(fn));
      return;
    }
    route().schedule_at_tagged(t, std::move(fn), route_domain());
  }

  /// Schedule `fn` after `delay` microseconds.
  void schedule_in(TimeUs delay, Callback fn) {
    EventQueue* executing = EventQueue::current();
    if (executing != nullptr && executing->owner() == this) {
      executing->schedule_in(delay, std::move(fn));
      return;
    }
    route().schedule_in_tagged(delay, std::move(fn), route_domain());
  }

  /// Advance every shard until its queue is empty or simulated time
  /// would pass `t_end`; events exactly at t_end are executed and every
  /// shard's clock lands on t_end (the barrier). With a pool and more
  /// than one shard, shards advance concurrently and this call is the
  /// barrier wait. Returns the number of events run across all shards.
  std::size_t run_until(TimeUs t_end, util::ThreadPool* pool = nullptr);

  /// Advance the clock by `duration` from now (the unified sampling-tick
  /// step: one call drives every hosted cluster's events for one tick).
  std::size_t run_for(TimeUs duration, util::ThreadPool* pool = nullptr) {
    return run_until(now() + duration, pool);
  }

  /// Run the globally earliest pending event (ties break toward the
  /// lowest shard index); returns false when every queue is empty. Only
  /// the chosen shard's clock advances; sibling shards catch up on the
  /// next run_until (now() reports the latest clock meanwhile).
  bool step();

  std::size_t pending_events() const;
  std::size_t executed_events() const;

  /// The slot pool every shard draws from (observability and tests).
  const SlotPool& slot_pool() const { return pool_; }

  // ---- rate-aware placement support --------------------------------------

  /// Move every pending event tagged `domain` from shard `from` to shard
  /// `to`, preserving the domain's relative event order (the shard
  /// planner re-attaching a domain at a phase boundary). The shards share
  /// one slot pool, so only the 16-byte keys move. Must be called
  /// between advances — aborts if any queue is executing an event on
  /// this thread — and with in-range shard indices.
  void migrate_domain(std::uint32_t domain, std::size_t from, std::size_t to);

  /// Sum per-domain executed-event counts across shards into `out`
  /// (resized to `num_domains`; counts for higher tags are dropped).
  /// Deterministic — derived from event execution only — so it is safe
  /// input for placement decisions.
  void domain_executed(std::vector<std::uint64_t>& out,
                       std::size_t num_domains) const;

  /// Per-shard events executed by the last multi-shard run_until()
  /// (empty before the first one, or on a single-shard simulator whose
  /// advances skip the bookkeeping).
  const std::vector<std::size_t>& last_advance_events() const {
    return last_advance_events_;
  }

  /// Per-shard wall-clock busy nanoseconds for the last multi-shard
  /// run_until(); max(busy) - busy[i] is shard i's barrier wait.
  /// Observability only — never feed wall clock into placement.
  const std::vector<std::uint64_t>& last_advance_busy_ns() const {
    return last_advance_busy_ns_;
  }

 private:
  /// The queue schedule_*() targets right now: the executing queue when
  /// inside an event — but only one of ours: an event in simulator A's
  /// shard calling into simulator B must reach B's queues, not push into
  /// A's — else this thread's bound shard (shard 0 when nothing is bound
  /// or the binding belongs to another Simulator).
  EventQueue& route() const {
    EventQueue* executing = EventQueue::current();
    if (executing != nullptr && executing->owner() == this) return *executing;
    return *shards_[bound_sim_ == this ? bound_shard_ : 0];
  }

  /// Domain tag for out-of-event schedules: the binding's domain when
  /// this thread's binding belongs to this simulator, else 0.
  std::uint32_t route_domain() const {
    return bound_sim_ == this ? bound_domain_ : 0;
  }

  /// This thread's active binding (see bind_shard). Tagged with the
  /// owning Simulator so bindings never leak across instances.
  static thread_local const Simulator* bound_sim_;
  static thread_local std::size_t bound_shard_;
  static thread_local std::uint32_t bound_domain_;

  /// Event slots of every shard. Declared before shards_ so that it
  /// outlives them (a queue destroys its pending callbacks in place).
  SlotPool pool_;
  std::vector<std::unique_ptr<EventQueue>> shards_;

  // Filled by multi-shard run_until() for barrier observability; reused
  // across ticks so steady-state advances stay allocation-free.
  std::vector<std::size_t> last_advance_events_;
  std::vector<std::uint64_t> last_advance_busy_ns_;
};

}  // namespace capes::sim
