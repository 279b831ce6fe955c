#pragma once
// Bounded lock-free single-producer/single-consumer ring. util::SlotQueue
// (slot_queue.hpp) rides on two of these — one carries filled slots to
// the consumer, the other carries them back — so the steady-state
// hand-off performs no locking and no allocation.
//
// Concurrency contract: exactly one producer thread calls try_push/push,
// exactly one consumer thread calls try_pop/pop. Any thread may call
// close(), size() or the capacity accessors. Blocking push/pop use C++20
// atomic wait/notify on a shared version counter (bumped by every push,
// pop and close, so a sleeper can never miss the state change it is
// waiting for), parking an idle consumer in the kernel instead of
// spinning.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace capes::util {

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2) so index
  /// wrapping is a mask, not a division.
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  std::size_t size() const {
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
  }

  bool empty() const { return size() == 0; }

  /// Producer: enqueue if there is room. Returns false when full or closed.
  bool try_push(T&& value) {
    if (closed_.load(std::memory_order_acquire)) return false;
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) >= slots_.size()) {
      return false;  // full
    }
    slots_[t & mask_] = std::move(value);
    tail_.store(t + 1, std::memory_order_release);
    bump();
    return true;
  }

  /// Producer: block until the value is enqueued (or the ring closes).
  /// Returns false only when the ring was closed before the push landed.
  bool push(T value) {
    for (;;) {
      const std::uint64_t v = version_.load(std::memory_order_acquire);
      if (try_push(std::move(value))) return true;
      if (closed_.load(std::memory_order_acquire)) return false;
      version_.wait(v, std::memory_order_acquire);
    }
  }

  /// Consumer: dequeue if available. Returns false when empty.
  bool try_pop(T& out) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;  // empty
    out = std::move(slots_[h & mask_]);
    head_.store(h + 1, std::memory_order_release);
    bump();
    return true;
  }

  /// Consumer: block until a value arrives. Returns false when the ring
  /// is closed *and* drained — the consumer's loop-exit condition.
  bool pop(T& out) {
    for (;;) {
      const std::uint64_t v = version_.load(std::memory_order_acquire);
      if (try_pop(out)) return true;
      if (closed_.load(std::memory_order_acquire)) {
        // One final look after observing closed: the producer's last push
        // may have landed between the failed pop and the closed load.
        return try_pop(out);
      }
      version_.wait(v, std::memory_order_acquire);
    }
  }

  /// Wake everything and refuse further pushes. Values still queued remain
  /// poppable (pop() drains, then returns false).
  void close() {
    closed_.store(true, std::memory_order_release);
    bump();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  void bump() {
    version_.fetch_add(1, std::memory_order_release);
    version_.notify_all();
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  // Producer writes tail_, consumer writes head_; keep them on separate
  // cache lines so the hand-off does not false-share.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> version_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace capes::util
