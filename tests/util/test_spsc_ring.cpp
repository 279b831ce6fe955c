#include "util/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace capes::util {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(9).capacity(), 16u);
}

TEST(SpscRing, PushPopFifoOrder) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_EQ(ring.size(), 4u);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, TryPushFailsWhenFull) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  int v = 0;
  EXPECT_TRUE(ring.try_pop(v));
  EXPECT_TRUE(ring.try_push(3));  // room again after a pop
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<std::uint64_t> ring(4);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(ring.try_push(std::uint64_t(i)));
    std::uint64_t v = 0;
    EXPECT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, expect++);
  }
}

TEST(SpscRing, CloseUnblocksConsumerAndDrains) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  ring.close();
  EXPECT_FALSE(ring.try_push(3));  // closed refuses new work
  int v = 0;
  EXPECT_TRUE(ring.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ring.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ring.pop(v));  // drained + closed
}

TEST(SpscRing, BlockingPopWaitsForProducer) {
  SpscRing<int> ring(2);
  int got = 0;
  std::thread consumer([&] {
    int v = 0;
    if (ring.pop(v)) got = v;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(ring.push(42));
  consumer.join();
  EXPECT_EQ(got, 42);
}

TEST(SpscRing, BlockingPushWaitsForConsumer) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  std::thread producer([&] { EXPECT_TRUE(ring.push(3)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  int v = 0;
  EXPECT_TRUE(ring.pop(v));
  producer.join();
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ring.try_pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(ring.try_pop(v));
  EXPECT_EQ(v, 3);
}

TEST(SpscRing, CloseUnblocksWaitingConsumer) {
  SpscRing<int> ring(2);
  bool returned_false = false;
  std::thread consumer([&] {
    int v = 0;
    returned_false = !ring.pop(v);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ring.close();
  consumer.join();
  EXPECT_TRUE(returned_false);
}

// The learner-shaped stress: one producer streams a million values, one
// consumer sums them; every value arrives exactly once, in order.
TEST(SpscRing, ProducerConsumerStressPreservesOrderAndCount) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kN = 1000000;
  std::uint64_t sum = 0;
  bool ordered = true;
  std::thread consumer([&] {
    std::uint64_t expect = 0;
    std::uint64_t v = 0;
    while (ring.pop(v)) {
      if (v != expect++) ordered = false;
      sum += v;
    }
  });
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_TRUE(ring.push(std::uint64_t(i)));
  ring.close();
  consumer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

// Tiny ring, fast producer: try_push fails constantly (full-ring
// backpressure) and the producer spins — yet nothing is lost or
// reordered across the thousands of forced wraparounds.
TEST(SpscRing, BackpressureStressLosesNothing) {
  SpscRing<std::uint32_t> ring(2);
  constexpr std::uint32_t kN = 200000;
  std::uint64_t rejected = 0;
  bool ordered = true;
  std::thread consumer([&] {
    std::uint32_t expect = 0;
    std::uint32_t v = 0;
    while (ring.pop(v)) {
      if (v != expect++) ordered = false;
    }
    if (expect != kN) ordered = false;
  });
  for (std::uint32_t i = 0; i < kN; ++i) {
    while (!ring.try_push(std::uint32_t(i))) ++rejected;
  }
  ring.close();
  consumer.join();
  EXPECT_TRUE(ordered);
  // A capacity-2 ring against a spinning producer must have pushed back.
  EXPECT_GT(rejected, 0u);
}

// close() while records are still queued: the consumer drains every
// buffered value before pop() reports shutdown, so an async sink (the
// capture writer, the learner) never drops the tail on exit.
TEST(SpscRing, ShutdownDrainStressDeliversEveryBufferedValue) {
  for (int round = 0; round < 50; ++round) {
    SpscRing<int> ring(16);
    std::uint64_t delivered = 0;
    std::thread consumer([&] {
      int v = 0;
      while (ring.pop(v)) ++delivered;
    });
    std::uint64_t pushed = 0;
    for (int i = 0; i < 1000; ++i) {
      if (ring.try_push(int(i))) ++pushed;
    }
    ring.close();  // races against the consumer's drain
    consumer.join();
    EXPECT_EQ(delivered, pushed) << "round " << round;
  }
}

TEST(SpscRing, MovesNonTrivialPayloads) {
  SpscRing<std::vector<int>> ring(4);
  std::vector<int> payload(100);
  std::iota(payload.begin(), payload.end(), 0);
  const int* data = payload.data();
  EXPECT_TRUE(ring.try_push(std::move(payload)));
  std::vector<int> out;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(out.data(), data);  // moved, not copied
}

}  // namespace
}  // namespace capes::util
