#pragma once
// One discrete-event queue: the unit the sharded simulator schedules on.
// Time is an int64 count of microseconds since simulation start. Events
// fire in (time, insertion order); handlers may schedule further events.
//
// Extracted from the original monolithic Simulator so that independent
// control domains can each own a queue and advance concurrently between
// sampling ticks (see sim/simulator.hpp for the shard host and the
// barrier protocol). A queue is single-threaded by construction: exactly
// one thread runs run_until()/step() at a time, and every event executed
// by a queue schedules follow-ups into that same queue via the
// thread-local current() pointer the Simulator routes through.
//
// Storage: an event is a 16-byte key {time, seq|slot} in a 4-ary
// min-heap, plus a 64-byte slot in a SlotPool that holds its Callback.
// Keys order by (time, seq); the slot never moves — the event runs in
// place and its slot goes back on the queue's free list. Once the heap
// and the free list are warm, scheduling and firing an event allocate
// nothing.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/callback.hpp"

namespace capes::sim {

using TimeUs = std::int64_t;

constexpr TimeUs kUsPerMs = 1000;
constexpr TimeUs kUsPerSec = 1000 * 1000;

/// Convert seconds (double) to simulation microseconds.
inline TimeUs seconds(double s) {
  return static_cast<TimeUs>(s * static_cast<double>(kUsPerSec));
}

/// Fixed-address storage for pending events, shared by every queue of a
/// Simulator. Each slot is one 64-byte line holding a Callback; beside it
/// sits a 32-bit tag word: the event's domain while the slot is pending,
/// the next free slot while it sits on a queue's free list. Queues recycle
/// slots through their own free lists and call grow() only when theirs
/// runs dry; that is the one shared step and takes a mutex. Slots never
/// move, so a callback may run in place while it schedules more events.
class SlotPool {
 public:
  /// Slot indices fill the low kSlotBits of an event key.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = std::uint32_t{1} << kSlotBits;

  SlotPool();
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  /// Slots handed out so far (pending or on some queue's free list).
  std::size_t size() const;

 private:
  friend class EventQueue;

  /// Hand out `n` never-used slots, returning the first index. Aborts
  /// when the pool would pass kMaxSlots. Thread-safe.
  std::uint32_t grow(std::uint32_t n);

  /// Raw storage of a slot (a Callback is constructed in it while the
  /// slot is pending).
  void* storage(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits]->slots[slot & kChunkMask].bytes;
  }
  Callback& callback(std::uint32_t slot) {
    return *std::launder(static_cast<Callback*>(storage(slot)));
  }
  std::uint32_t& tag(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits]->tags[slot & kChunkMask];
  }

  static constexpr unsigned kChunkBits = 12;
  static constexpr std::uint32_t kChunkSlots = std::uint32_t{1} << kChunkBits;
  static constexpr std::uint32_t kChunkMask = kChunkSlots - 1;
  static constexpr std::uint32_t kMaxChunks = kMaxSlots / kChunkSlots;

  struct alignas(64) Slot {
    alignas(Callback) unsigned char bytes[sizeof(Callback)];
  };
  /// Trivially default-constructible: `new Chunk` leaves the pages
  /// untouched until slots are first used.
  struct Chunk {
    Slot slots[kChunkSlots];
    std::uint32_t tags[kChunkSlots];
  };

  /// A fixed directory (never reallocated), so a queue reads its slots'
  /// chunk pointers while another queue's grow() fills a later entry.
  std::unique_ptr<std::unique_ptr<Chunk>[]> chunks_;
  mutable std::mutex mu_;  ///< guards size_ and directory growth
  std::uint32_t size_ = 0;
};

class EventQueue {
 public:
  /// next_event_time() when the queue is empty.
  static constexpr TimeUs kNoEvent = INT64_MAX;

  /// A standalone queue with a slot pool of its own.
  EventQueue();
  /// A queue drawing slots from `pool`, which must outlive it. Queues
  /// that share a pool can hand pending events to each other by moving
  /// keys alone (move_domain).
  explicit EventQueue(SlotPool& pool);
  /// Destroys the callbacks of events still pending.
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  TimeUs now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now, else it fires "now").
  /// The event inherits the executing event's domain tag when called from
  /// inside an event on this queue, and tag 0 otherwise.
  void schedule_at(TimeUs t, Callback fn) {
    push(t, std::move(fn), resolve_tag(0));
  }

  /// Schedule `fn` after `delay` microseconds.
  void schedule_in(TimeUs delay, Callback fn) {
    push(now_ + (delay < 0 ? 0 : delay), std::move(fn), resolve_tag(0));
  }

  /// schedule_at with an explicit domain tag. Tags group events by the
  /// control domain that owns them so the shard planner can count per-
  /// domain rates and migrate a domain's pending events between queues;
  /// they have no effect on execution order.
  void schedule_at_tagged(TimeUs t, Callback fn, std::uint32_t domain) {
    push(t, std::move(fn), domain);
  }

  /// schedule_in with an explicit domain tag.
  void schedule_in_tagged(TimeUs delay, Callback fn, std::uint32_t domain) {
    push(now_ + (delay < 0 ? 0 : delay), std::move(fn), domain);
  }

  /// Run until the queue is empty or simulated time would pass `t_end`.
  /// Events exactly at t_end are executed, and the clock lands on t_end
  /// even when the queue drains early (the time-synced barrier every
  /// shard meets at a sampling tick). Returns the number of events run.
  std::size_t run_until(TimeUs t_end);

  /// Advance the clock by `duration` from now.
  std::size_t run_for(TimeUs duration) { return run_until(now_ + duration); }

  /// Run a single event; returns false when the queue is empty.
  bool step();

  /// Timestamp of the next pending event, kNoEvent when empty.
  TimeUs next_event_time() const {
    return heap_.empty() ? kNoEvent : heap_[0].time;
  }

  std::size_t pending_events() const { return heap_.size(); }
  std::size_t executed_events() const { return executed_; }

  /// Events executed so far bucketed by domain tag (index == tag; tags
  /// past the end have executed nothing). Plain counters — a queue is
  /// single-threaded by construction, so no atomics on the hot path.
  const std::vector<std::uint64_t>& executed_by_domain() const {
    return executed_by_domain_;
  }

  /// Move every pending event tagged `domain` into `to`, which must share
  /// this queue's slot pool (aborts otherwise). Only keys move: callbacks
  /// stay in their slots. The moved events keep their relative firing
  /// order and queue behind `to`'s events of equal time; times earlier
  /// than `to.now()` clamp to it. The events left behind keep their
  /// order. Must not be called while either queue is executing an event.
  void move_domain(std::uint32_t domain, EventQueue& to);

  /// The queue currently executing an event on this thread (null outside
  /// run_until()/step()). Simulator::schedule_* routes through this so an
  /// event's follow-ups always land in the shard that ran it, regardless
  /// of which worker thread is advancing the shard.
  static EventQueue* current() { return current_; }

  /// Owner tag (the hosting Simulator). Routing checks it so that a call
  /// into simulator B from an event executing in simulator A's shard
  /// never lands in A's queue. Null for standalone queues.
  void set_owner(const void* owner) { owner_ = owner; }
  const void* owner() const { return owner_; }

 private:
  /// Heap entry: firing time, then (seq << kSlotBits | slot). Sequence
  /// numbers are unique per queue, so comparing the second word compares
  /// insertion order and the slot bits never decide.
  struct Key {
    TimeUs time;
    std::uint64_t order;
  };
  static constexpr std::uint64_t kSlotMask = SlotPool::kMaxSlots - 1;
  static constexpr std::uint64_t kMaxSeq =
      (std::uint64_t{1} << (64 - SlotPool::kSlotBits)) - 1;
  /// Fresh slots a queue takes from the pool per grow().
  static constexpr std::uint32_t kGrowBatch = 256;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  static bool before(const Key& a, const Key& b) {
    return a.time < b.time || (a.time == b.time && a.order < b.order);
  }
  static std::uint32_t slot_of(const Key& k) {
    return static_cast<std::uint32_t>(k.order & kSlotMask);
  }

  /// Marks this queue as the thread's executing queue for a scope.
  class ScopedCurrent {
   public:
    explicit ScopedCurrent(EventQueue* q) : previous_(current_) {
      current_ = q;
    }
    ~ScopedCurrent() { current_ = previous_; }
    ScopedCurrent(const ScopedCurrent&) = delete;
    ScopedCurrent& operator=(const ScopedCurrent&) = delete;

   private:
    EventQueue* previous_;
  };

  void push(TimeUs t, Callback&& fn, std::uint32_t domain);
  /// Queue the pending event in `slot` at `t` with the next sequence
  /// number (aborts when the sequence field is exhausted).
  void push_key(TimeUs t, std::uint32_t slot);
  std::uint32_t acquire_slot();
  /// Pop the earliest key, run its event in place, recycle its slot.
  void fire_next();
  /// Move `hole`'s key down until the heap property holds below it.
  void sift_down(std::size_t hole, Key key);

  /// Tag for an event scheduled without an explicit tag: the executing
  /// event's tag when this queue is running an event on this thread,
  /// else `fallback`.
  std::uint32_t resolve_tag(std::uint32_t fallback) const {
    return current_ == this ? executing_domain_ : fallback;
  }

  void count_executed(std::uint32_t domain) {
    if (domain >= executed_by_domain_.size()) {
      executed_by_domain_.resize(domain + 1, 0);
    }
    ++executed_by_domain_[domain];
  }

  static thread_local EventQueue* current_;

  std::unique_ptr<SlotPool> own_pool_;  ///< set for a standalone queue
  SlotPool* pool_;
  /// Free list through the pool's tag words, then a run of fresh slots.
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t fresh_next_ = 0;
  std::uint32_t fresh_end_ = 0;

  const void* owner_ = nullptr;
  TimeUs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::uint32_t executing_domain_ = 0;
  std::vector<std::uint64_t> executed_by_domain_;
  std::vector<Key> heap_;  ///< 4-ary min-heap by before()
};

}  // namespace capes::sim
