// sim::EventQueue: the single-shard event loop extracted from the
// monolithic Simulator. Ordering, clock, the thread-local current()
// pointer the sharded Simulator routes scheduling through, domain
// migration between queues sharing a slot pool, and the allocation-free
// steady state.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/alloc_hook.hpp"

namespace capes::sim {
namespace {

TEST(EventQueue, TimeStartsAtZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0);
  EXPECT_EQ(q.pending_events(), 0u);
  EXPECT_EQ(q.next_event_time(), EventQueue::kNoEvent);
}

TEST(EventQueue, EventsFireInTimeOrderWithInsertionTieBreak) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(300, [&] { order.push_back(3); });
  q.schedule_at(100, [&] { order.push_back(1); });
  q.schedule_at(100, [&] { order.push_back(2); });
  EXPECT_EQ(q.next_event_time(), 100);
  q.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.executed_events(), 3u);
}

TEST(EventQueue, RunUntilLandsOnTargetTimeEvenWhenDrained) {
  // The barrier contract: every shard's clock reaches t_end, with or
  // without events, so all shards agree on "now" at each sampling tick.
  EventQueue q;
  q.schedule_at(50, [] {});
  q.run_until(1000);
  EXPECT_EQ(q.now(), 1000);
  EventQueue empty;
  EXPECT_EQ(empty.run_until(777), 0u);
  EXPECT_EQ(empty.now(), 777);
}

TEST(EventQueue, PastSchedulesClampToNow) {
  EventQueue q;
  q.run_until(500);
  bool ran = false;
  q.schedule_at(100, [&] { ran = true; });  // in the past -> fires "now"
  q.run_until(500);
  EXPECT_TRUE(ran);
  q.schedule_in(-25, [] {});  // negative delay -> fires "now"
  EXPECT_EQ(q.next_event_time(), 500);
}

TEST(EventQueue, StepRunsOneEvent) {
  EventQueue q;
  int runs = 0;
  q.schedule_at(10, [&] { ++runs; });
  q.schedule_at(20, [&] { ++runs; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(q.now(), 10);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
  EXPECT_EQ(runs, 2);
}

TEST(EventQueue, CurrentIsSetWhileExecuting) {
  // Simulator::schedule_* routes through current(), so an event's
  // follow-ups always land in the queue that ran it.
  EventQueue q;
  EXPECT_EQ(EventQueue::current(), nullptr);
  EventQueue* seen = nullptr;
  q.schedule_at(10, [&] { seen = EventQueue::current(); });
  q.run_until(100);
  EXPECT_EQ(seen, &q);
  EXPECT_EQ(EventQueue::current(), nullptr);
}

TEST(EventQueue, FollowUpsScheduledByEventsStayInQueue) {
  EventQueue q;
  int runs = 0;
  q.schedule_at(10, [&] {
    ++runs;
    EventQueue::current()->schedule_in(5, [&] { ++runs; });
  });
  q.run_until(100);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(q.executed_events(), 2u);
}

TEST(EventQueue, CallbackOwnsMoveOnlyCaptureAndReleasesItOnce) {
  auto token = std::make_shared<int>(7);
  int seen = 0;
  {
    EventQueue q;
    q.schedule_at(10, [&seen, p = std::make_unique<int>(41)] { seen = *p + 1; });
    q.schedule_at(20, [token] {});
    q.schedule_at(30, [token] {});
    EXPECT_EQ(token.use_count(), 3);
    q.run_until(20);
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(token.use_count(), 2);  // the run event's capture is gone
  }
  // The event still pending died with its queue.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, CallbackTakesCapturesUpToOneCacheLine) {
  // The largest capture a Callback holds: 56 bytes, inline.
  struct Full {
    std::array<std::uint64_t, 6> words;
    std::uint64_t* sum;
    void operator()() const {
      for (std::uint64_t w : words) *sum += w;
    }
  };
  static_assert(sizeof(Full) == Callback::kCapacity);
  std::uint64_t sum = 0;
  Callback a(Full{{1, 2, 3, 4, 5, 6}, &sum});
  Callback b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(sum, 21u);
}

/// One domain's firing record: (time, event id) in firing order.
using Trace = std::vector<std::pair<TimeUs, int>>;

/// Record this event, then schedule `depth` more generations from inside
/// the executing queue (so the chain follows its queue across a move).
void chain(std::array<Trace, 3>* traces, std::uint32_t domain, int id,
           int depth) {
  EventQueue* q = EventQueue::current();
  (*traces)[domain].emplace_back(q->now(), id);
  if (depth == 0) return;
  q->schedule_in(10 + id % 3, [traces, domain, id, depth] {
    chain(traces, domain, id, depth - 1);
  });
}

/// Forty chains of domains 1 and 2, interleaved, many at equal times.
void seed_chains(EventQueue& q, std::array<Trace, 3>* traces) {
  for (int id = 0; id < 40; ++id) {
    const std::uint32_t domain = 1 + static_cast<std::uint32_t>(id % 2);
    q.schedule_at_tagged((id * 37) % 120,
                         [traces, domain, id] { chain(traces, domain, id, 6); },
                         domain);
  }
}

TEST(EventQueue, MovedAndSurvivingEventsFireAsInAnUnmovedTwin) {
  std::array<Trace, 3> twin;
  EventQueue alone;
  seed_chains(alone, &twin);
  alone.run_until(60);
  alone.run_until(500);

  std::array<Trace, 3> split;
  SlotPool pool;
  EventQueue from(pool);
  EventQueue to(pool);
  seed_chains(from, &split);
  from.run_until(60);
  to.run_until(60);
  const std::size_t pending = from.pending_events();
  from.move_domain(2, to);
  EXPECT_GT(to.pending_events(), 0u);
  EXPECT_EQ(from.pending_events() + to.pending_events(), pending);
  from.run_until(500);
  to.run_until(500);

  ASSERT_FALSE(twin[2].empty());
  EXPECT_EQ(split[1], twin[1]);  // survivors
  EXPECT_EQ(split[2], twin[2]);  // moved, follow-ups included
}

TEST(EventQueue, MovedEventsKeepTheirDomainTag) {
  std::array<Trace, 3> traces;
  SlotPool pool;
  EventQueue from(pool);
  EventQueue to(pool);
  seed_chains(from, &traces);
  from.move_domain(2, to);
  from.run_until(500);
  to.run_until(500);
  // Every domain-2 event, and every follow-up it scheduled, ran in `to`
  // under tag 2; nothing of domain 1 left `from`.
  ASSERT_GE(to.executed_by_domain().size(), 3u);
  EXPECT_EQ(to.executed_by_domain()[2], traces[2].size());
  EXPECT_EQ(to.executed_by_domain()[1], 0u);
  EXPECT_EQ(from.executed_by_domain()[1], traces[1].size());
  EXPECT_EQ(to.executed_events(), traces[2].size());
}

TEST(EventQueue, MovedEventsInThePastClampToTheDestinationClock) {
  SlotPool pool;
  EventQueue from(pool);
  EventQueue to(pool);
  std::vector<TimeUs> fired;
  from.schedule_at_tagged(50, [&] { fired.push_back(to.now()); }, 3);
  from.schedule_at_tagged(400, [&] { fired.push_back(to.now()); }, 3);
  to.run_until(300);
  // Queued behind `to`'s own event at 300: equal times fire in arrival order.
  to.schedule_at(300, [&] { fired.push_back(-1); });
  from.move_domain(3, to);
  EXPECT_EQ(from.pending_events(), 0u);
  EXPECT_EQ(to.next_event_time(), 300);
  to.run_until(1000);
  EXPECT_EQ(fired, (std::vector<TimeUs>{-1, 300, 400}));
}

TEST(EventQueue, WarmScheduleAndRunAreAllocationFree) {
  if (!util::allocation_hook_active()) {
    GTEST_SKIP() << "counting allocator hook not linked in";
  }
  EventQueue q;
  std::uint64_t ran = 0;
  // A standing population, like the cluster's armed RPC timeouts.
  for (int i = 0; i < 2000; ++i) {
    q.schedule_at_tagged(1'000'000'000 + i, [&ran] { ++ran; },
                         static_cast<std::uint32_t>(i % 4));
  }
  auto cycle = [&](int i) {
    std::array<std::uint64_t, 5> payload{};
    payload[0] = static_cast<std::uint64_t>(i);
    q.schedule_in(1 + i % 7, [&ran, payload] { ran += 1 + payload[0] % 2; });
    q.run_for(4);
  };
  for (int i = 0; i < 1000; ++i) cycle(i);  // warm the heap and free list
  const std::uint64_t ran_before = ran;
  util::AllocTally tally;
  for (int i = 0; i < 10'000; ++i) cycle(i);
  EXPECT_EQ(tally.delta(), 0u);
  EXPECT_GT(ran, ran_before);
}

}  // namespace
}  // namespace capes::sim
