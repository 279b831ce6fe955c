#include "util/slot_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/alloc_hook.hpp"

namespace capes::util {
namespace {

TEST(SlotQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SlotQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SlotQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(SlotQueue<int>(8).capacity(), 8u);
}

TEST(SlotQueue, InitRunsOncePerSlotAndSubmitsArriveInOrder) {
  int next = 0;
  SlotQueue<int> q(4, [&](int& slot) { slot = next++; });
  EXPECT_EQ(next, 4);
  for (int i = 0; i < 3; ++i) {
    int* slot = q.try_acquire();
    ASSERT_NE(slot, nullptr);
    *slot = 100 + i;
    ASSERT_TRUE(q.submit(slot));
  }
  EXPECT_FALSE(q.empty());
  for (int i = 0; i < 3; ++i) {
    int* slot = q.try_take();
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(*slot, 100 + i);
    q.release(slot);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.try_take(), nullptr);
}

TEST(SlotQueue, TryAcquireIsNullWhenEverySlotIsInFlight) {
  SlotQueue<int> q(4);
  std::set<int*> seen;
  for (std::size_t i = 0; i < q.capacity(); ++i) {
    int* slot = q.try_acquire();
    ASSERT_NE(slot, nullptr);
    seen.insert(slot);
    ASSERT_TRUE(q.submit(slot));
  }
  EXPECT_EQ(seen.size(), q.capacity());  // distinct, stable slots
  EXPECT_EQ(q.try_acquire(), nullptr);
  q.release(q.try_take());
  EXPECT_NE(q.try_acquire(), nullptr);
}

TEST(SlotQueue, GivenBackSlotIsTheNextOneAcquired) {
  SlotQueue<int> q(4);
  int* first = q.try_acquire();
  ASSERT_NE(first, nullptr);
  q.give_back(first);
  EXPECT_EQ(q.try_acquire(), first);
  q.give_back(first);
  EXPECT_EQ(q.acquire(), first);
}

TEST(SlotQueue, SubmitAfterCloseKeepsTheSlotWithTheProducer) {
  SlotQueue<int> q(2);
  int* slot = q.try_acquire();
  q.close();
  EXPECT_FALSE(q.submit(slot));
  EXPECT_EQ(q.try_acquire(), slot);
}

TEST(SlotQueue, CloseWakesABlockedTake) {
  SlotQueue<int> q(2);
  std::atomic<bool> returned{false};
  int sentinel = 0;
  int* got = &sentinel;
  std::thread consumer([&] {
    got = q.take();
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.close();
  consumer.join();
  EXPECT_EQ(got, nullptr);
}

TEST(SlotQueue, CloseDrainsQueuedSlotsBeforeTakeReturnsNull) {
  SlotQueue<int> q(4);
  int* slot = q.try_acquire();
  *slot = 9;
  ASSERT_TRUE(q.submit(slot));
  q.close();
  int* taken = q.take();
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(*taken, 9);
  EXPECT_EQ(q.take(), nullptr);
}

TEST(SlotQueue, CloseWakesABlockedAcquire) {
  SlotQueue<int> q(2);
  while (int* slot = q.try_acquire()) ASSERT_TRUE(q.submit(slot));
  std::atomic<bool> returned{false};
  int sentinel = 0;
  int* got = &sentinel;
  std::thread producer([&] {
    got = q.acquire();
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.close();
  producer.join();
  EXPECT_EQ(got, nullptr);
}

// Two threads, a pool much smaller than the traffic: the producer sheds
// when the pool is exhausted and never blocks; every slot it submits
// comes back, and once the consumer is idle the producer can acquire
// the whole pool again.
TEST(SlotQueue, SlotsConservedUnderTwoThreadStress) {
  SlotQueue<std::uint64_t> q(8);
  std::atomic<std::uint64_t> consumed{0};
  std::uint64_t order_errors = 0;
  std::thread consumer([&] {
    std::uint64_t expect = 0;
    while (std::uint64_t* slot = q.take()) {
      if (*slot != expect) ++order_errors;
      expect = *slot + 1;
      q.release(slot);
      consumed.fetch_add(1, std::memory_order_release);
    }
  });
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  for (int i = 0; i < 100000; ++i) {
    std::uint64_t* slot = q.try_acquire();
    if (slot == nullptr) {
      ++dropped;  // pool exhausted: shed, never block
      continue;
    }
    *slot = sent;
    if (!q.submit(slot)) {  // never full while slots are conserved
      ADD_FAILURE() << "submit refused at " << i;
      break;
    }
    ++sent;
  }
  while (consumed.load(std::memory_order_acquire) < sent) {
    std::this_thread::yield();
  }
  std::set<std::uint64_t*> pool;
  while (std::uint64_t* slot = q.try_acquire()) pool.insert(slot);
  q.close();
  consumer.join();
  EXPECT_EQ(order_errors, 0u);
  EXPECT_EQ(consumed.load(), sent);
  EXPECT_EQ(sent + dropped, 100000u);
  EXPECT_EQ(pool.size(), q.capacity());
}

TEST(SlotQueue, WarmCyclesAreAllocationFree) {
  ASSERT_TRUE(allocation_hook_active());
  SlotQueue<std::vector<std::uint8_t>> q(
      4, [](std::vector<std::uint8_t>& slot) { slot.reserve(64); });
  AllocTally tally;
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::uint8_t>* slot = q.try_acquire();
    ASSERT_NE(slot, nullptr);
    slot->assign(static_cast<std::size_t>(i % 64), 7);
    ASSERT_TRUE(q.submit(slot));
    std::vector<std::uint8_t>* taken = q.try_take();
    ASSERT_EQ(taken, slot);
    q.release(taken);
  }
  EXPECT_EQ(tally.delta(), 0u);
}

}  // namespace
}  // namespace capes::util
