#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace capes::sim {

namespace {

[[noreturn]] void die(const char* message) {
  std::fprintf(stderr, "%s\n", message);
  std::abort();
}

}  // namespace

thread_local EventQueue* EventQueue::current_ = nullptr;

// ---- SlotPool ----------------------------------------------------------------

SlotPool::SlotPool()
    : chunks_(std::make_unique<std::unique_ptr<Chunk>[]>(kMaxChunks)) {}

std::uint32_t SlotPool::grow(std::uint32_t n) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (n > kMaxSlots - size_) {
    die("sim::SlotPool: more than 2^24 event slots; the slot field of the "
        "event key is full");
  }
  const std::uint32_t first = size_;
  size_ += n;
  for (std::uint32_t c = first >> kChunkBits; c <= (size_ - 1) >> kChunkBits;
       ++c) {
    // Default-initialised, not value-initialised: no page is touched
    // before its slots are used.
    if (!chunks_[c]) chunks_[c].reset(new Chunk);
  }
  return first;
}

std::size_t SlotPool::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

// ---- EventQueue --------------------------------------------------------------

EventQueue::EventQueue()
    : own_pool_(std::make_unique<SlotPool>()), pool_(own_pool_.get()) {}

EventQueue::EventQueue(SlotPool& pool) : pool_(&pool) {}

EventQueue::~EventQueue() {
  for (const Key& k : heap_) pool_->callback(slot_of(k)).~Callback();
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = pool_->tag(slot);
    return slot;
  }
  if (fresh_next_ == fresh_end_) {
    fresh_next_ = pool_->grow(kGrowBatch);
    fresh_end_ = fresh_next_ + kGrowBatch;
  }
  return fresh_next_++;
}

void EventQueue::push(TimeUs t, Callback&& fn, std::uint32_t domain) {
  const std::uint32_t slot = acquire_slot();
  ::new (pool_->storage(slot)) Callback(std::move(fn));
  pool_->tag(slot) = domain;
  push_key(t, slot);
}

void EventQueue::push_key(TimeUs t, std::uint32_t slot) {
  if (next_seq_ > kMaxSeq) {
    die("sim::EventQueue: 2^40 events scheduled on one queue; the sequence "
        "field of the event key is full");
  }
  const Key key{t < now_ ? now_ : t, next_seq_++ << SlotPool::kSlotBits | slot};
  // Sift up from a new leaf: parents that fire later move down.
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void EventQueue::sift_down(std::size_t hole, Key key) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], key)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = key;
}

void EventQueue::fire_next() {
  const Key top = heap_[0];
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);

  const std::uint32_t slot = slot_of(top);
  now_ = top.time;
  executing_domain_ = pool_->tag(slot);
  count_executed(executing_domain_);
  // The slot cannot move or be reused while its callback runs: follow-ups
  // take other slots, and growth never relocates existing ones.
  Callback& fn = pool_->callback(slot);
  fn();
  fn.~Callback();
  pool_->tag(slot) = free_head_;
  free_head_ = slot;
}

std::size_t EventQueue::run_until(TimeUs t_end) {
  const ScopedCurrent scope(this);
  std::size_t ran = 0;
  while (!heap_.empty() && heap_[0].time <= t_end) {
    fire_next();
    ++ran;
  }
  executed_ += ran;
  if (now_ < t_end) now_ = t_end;
  return ran;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const ScopedCurrent scope(this);
  fire_next();
  ++executed_;
  return true;
}

void EventQueue::move_domain(std::uint32_t domain, EventQueue& to) {
  if (to.pool_ != pool_) {
    die("sim::EventQueue::move_domain: the queues do not share a slot pool");
  }
  if (&to == this) return;
  std::vector<Key> moved;
  std::size_t kept = 0;
  for (const Key& k : heap_) {
    if (pool_->tag(slot_of(k)) == domain) {
      moved.push_back(k);
    } else {
      heap_[kept++] = k;
    }
  }
  if (moved.empty()) return;
  // The survivors keep their keys, hence their order; re-heapify them.
  heap_.resize(kept);
  for (std::size_t i = kept; i-- > 0;) sift_down(i, heap_[i]);
  // Firing order, then fresh sequence numbers in the destination.
  std::sort(moved.begin(), moved.end(), before);
  for (const Key& k : moved) to.push_key(k.time, slot_of(k));
}

}  // namespace capes::sim
