#pragma once
// A fixed pool of reusable slots handed from one producer thread to one
// consumer thread. Slots circulate between two SpscRings: the free ring
// (consumer -> producer) and the work ring (producer -> consumer). Both
// rings can hold the whole pool, so a hand-off never fails while the
// queue is open, and the warm path copies into recycled slot capacity
// without locking or allocating.
//
//   producer: try_acquire()/acquire() -> fill -> submit()
//             (or give_back() a slot it took but will not send)
//   consumer: try_take()/take() -> use -> release()
//
// Concurrency contract: exactly one producer thread calls try_acquire,
// acquire, submit and give_back; exactly one consumer thread calls
// try_take, take and release. Any thread may call close(), empty() or
// capacity(). Slot addresses are stable for the queue's lifetime.

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "util/spsc_ring.hpp"

namespace capes::util {

template <typename T>
class SlotQueue {
 public:
  /// `capacity` slots, rounded up to a power of two (minimum 2). `init`
  /// runs once per slot, e.g. to reserve buffer capacity so no cold slot
  /// grows mid-run.
  explicit SlotQueue(std::size_t capacity,
                     const std::function<void(T&)>& init = nullptr)
      : free_(capacity), work_(capacity) {
    cells_ = std::make_unique<Cell[]>(free_.capacity());
    for (std::size_t i = 0; i < free_.capacity(); ++i) {
      if (init) init(cells_[i].slot);
      free_.try_push(&cells_[i].slot);
    }
  }

  std::size_t capacity() const { return free_.capacity(); }

  /// Producer: a free slot, or nullptr when every slot is in flight.
  T* try_acquire() {
    if (spare_ != nullptr) return std::exchange(spare_, nullptr);
    T* slot = nullptr;
    return free_.try_pop(slot) ? slot : nullptr;
  }

  /// Producer: wait for a free slot. nullptr only once the queue is
  /// closed and no slot came back.
  T* acquire() {
    if (spare_ != nullptr) return std::exchange(spare_, nullptr);
    T* slot = nullptr;
    return free_.pop(slot) ? slot : nullptr;
  }

  /// Producer: hand a filled slot to the consumer. Returns false only
  /// when the queue is closed; the slot then stays with the producer, as
  /// by give_back().
  bool submit(T* slot) {
    if (work_.try_push(std::move(slot))) return true;
    give_back(slot);
    return false;
  }

  /// Producer: return the one slot it acquired but did not submit (at
  /// most one at a time). The next acquire returns it.
  void give_back(T* slot) { spare_ = slot; }

  /// Consumer: the oldest submitted slot, or nullptr when none is queued.
  T* try_take() {
    T* slot = nullptr;
    return work_.try_pop(slot) ? slot : nullptr;
  }

  /// Consumer: wait for a submitted slot. nullptr means the queue is
  /// closed and drained — the consumer's loop-exit condition.
  T* take() {
    T* slot = nullptr;
    return work_.pop(slot) ? slot : nullptr;
  }

  /// Consumer: return a used slot to the producer. After close() the slot
  /// stays in the pool unused.
  void release(T* slot) { free_.try_push(std::move(slot)); }

  /// Refuse further submits and wake a blocked take() (which drains what
  /// is queued first) and a blocked acquire().
  void close() {
    work_.close();
    free_.close();
  }

  /// True when nothing is submitted and not yet taken.
  bool empty() const { return work_.empty(); }

 private:
  /// One slot per cache line: filling a slot never false-shares with the
  /// other thread using its neighbour.
  struct alignas(64) Cell {
    T slot;
  };
  std::unique_ptr<Cell[]> cells_;
  SpscRing<T*> free_;  ///< consumer -> producer
  SpscRing<T*> work_;  ///< producer -> consumer
  T* spare_ = nullptr;  ///< producer-local: the last slot given back
};

}  // namespace capes::util
