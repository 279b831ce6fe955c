#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "util/alloc_hook.hpp"
#include "util/thread_pool.hpp"

namespace capes::sim {
namespace {

TEST(Simulator, TimeStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, SecondsHelper) {
  EXPECT_EQ(seconds(1.0), 1000000);
  EXPECT_EQ(seconds(0.5), 500000);
  EXPECT_EQ(kUsPerSec, 1000000);
  EXPECT_EQ(kUsPerMs, 1000);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(100, [&] { order.push_back(2); });
  sim.schedule_at(100, [&] { order.push_back(3); });
  sim.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator sim;
  TimeUs seen = -1;
  sim.schedule_at(5000, [&] { seen = sim.now(); });
  sim.run_until(10000);
  EXPECT_EQ(seen, 5000);
  EXPECT_EQ(sim.now(), 10000);  // clock advances to the horizon
}

TEST(Simulator, RunUntilDoesNotRunLaterEvents) {
  Simulator sim;
  bool late_fired = false;
  sim.schedule_at(2000, [&] { late_fired = true; });
  sim.run_until(1000);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(2000);  // boundary inclusive
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  TimeUs fired_at = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_in(50, [&] { fired_at = sim.now(); });
  });
  sim.run_until(1000);
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, PastScheduleClampsToNow) {
  Simulator sim;
  sim.run_until(500);
  TimeUs fired_at = -1;
  sim.schedule_at(100, [&] { fired_at = sim.now(); });
  sim.run_until(600);
  EXPECT_EQ(fired_at, 500);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator sim;
  TimeUs fired_at = -1;
  sim.schedule_in(-100, [&] { fired_at = sim.now(); });
  sim.run_until(10);
  EXPECT_EQ(fired_at, 0);
}

TEST(Simulator, HandlersCanChainEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sim.schedule_in(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run_until(1000);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, StepRunsExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutedEventCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run_until(10);
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, RunUntilReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i * 10, [] {});
  EXPECT_EQ(sim.run_until(30), 4u);  // t=0,10,20,30
  EXPECT_EQ(sim.run_until(100), 3u);
}

// ---------------------------------------------------------------------------
// Sharded event loop
// ---------------------------------------------------------------------------

TEST(SimulatorShards, DefaultIsSingleShard) {
  Simulator sim;
  EXPECT_EQ(sim.num_shards(), 1u);
}

TEST(SimulatorShards, BindShardRoutesOutOfEventSchedules) {
  Simulator sim;
  sim.configure_shards(3);
  {
    const auto binding = sim.bind_shard(2);
    sim.schedule_at(10, [] {});
    sim.schedule_at(20, [] {});
  }
  sim.schedule_at(30, [] {});  // binding restored -> shard 0
  EXPECT_EQ(sim.shard(0).pending_events(), 1u);
  EXPECT_EQ(sim.shard(1).pending_events(), 0u);
  EXPECT_EQ(sim.shard(2).pending_events(), 2u);
  EXPECT_EQ(sim.pending_events(), 3u);
}

TEST(SimulatorShards, BindingsNest) {
  Simulator sim;
  sim.configure_shards(2);
  const auto outer = sim.bind_shard(1);
  {
    const auto inner = sim.bind_shard(0);
    sim.schedule_at(1, [] {});
  }
  sim.schedule_at(2, [] {});  // back to the outer binding
  EXPECT_EQ(sim.shard(0).pending_events(), 1u);
  EXPECT_EQ(sim.shard(1).pending_events(), 1u);
}

TEST(SimulatorShards, FollowUpsStayInTheExecutingShard) {
  // An event's own schedules must land in its shard even with no
  // binding active — this is what keeps a domain's event chain inside
  // its queue across ticks.
  Simulator sim;
  sim.configure_shards(2);
  {
    const auto binding = sim.bind_shard(1);
    sim.schedule_at(10, [&] { sim.schedule_in(5000, [] {}); });
  }
  sim.run_until(1000);
  EXPECT_EQ(sim.shard(0).pending_events(), 0u);
  EXPECT_EQ(sim.shard(1).pending_events(), 1u);
}

TEST(SimulatorShards, RunUntilIsABarrierForEveryShard) {
  // Empty shards advance too: the barrier leaves every clock on t_end,
  // so a shard with no events (an idle domain) can never stall or skew
  // the others.
  Simulator sim;
  sim.configure_shards(3);
  {
    const auto binding = sim.bind_shard(1);
    sim.schedule_at(400, [] {});
  }
  EXPECT_EQ(sim.run_until(1000), 1u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(sim.shard(s).now(), 1000) << s;
  }
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulatorShards, NowInsideAnEventReadsTheShardClock) {
  Simulator sim;
  sim.configure_shards(2);
  TimeUs seen0 = -1, seen1 = -1;
  {
    const auto binding = sim.bind_shard(0);
    sim.schedule_at(100, [&] { seen0 = sim.now(); });
  }
  {
    const auto binding = sim.bind_shard(1);
    sim.schedule_at(700, [&] { seen1 = sim.now(); });
  }
  sim.run_until(1000);
  EXPECT_EQ(seen0, 100);
  EXPECT_EQ(seen1, 700);
}

TEST(SimulatorShards, StepPicksTheGloballyEarliestEvent) {
  Simulator sim;
  sim.configure_shards(2);
  std::vector<int> order;
  {
    const auto binding = sim.bind_shard(1);
    sim.schedule_at(10, [&] { order.push_back(1); });
  }
  {
    const auto binding = sim.bind_shard(0);
    sim.schedule_at(20, [&] { order.push_back(2); });
  }
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorShards, StepKeepsNowMonotonicAcrossShards) {
  // A bare step() advances only the chosen shard's clock; now() must
  // still report the latest clock so a following run_for never rewinds
  // time past an already-executed event.
  Simulator sim;
  sim.configure_shards(2);
  bool follow_up_ran = false;
  {
    const auto binding = sim.bind_shard(1);
    sim.schedule_at(700, [&] {
      sim.schedule_in(50, [&] { follow_up_ran = true; });
    });
  }
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), 700);  // the latest shard clock, not shard 0's 0
  sim.run_for(100);           // t_end = 800: the 750 follow-up must run
  EXPECT_TRUE(follow_up_ran);
  EXPECT_EQ(sim.shard(0).now(), 800);
  EXPECT_EQ(sim.shard(1).now(), 800);
}

TEST(SimulatorShards, ExecutingQueueOfAnotherSimulatorIsNotAdopted) {
  // An event running in simulator A's shard that calls into simulator B
  // must schedule into B's queues (and read B's clock), not push into
  // the queue currently executing on this thread.
  Simulator a;
  Simulator b;
  TimeUs b_now_seen = -1;
  a.schedule_at(250, [&] {
    b.schedule_at(40, [] {});
    b_now_seen = b.now();
  });
  a.run_until(1000);
  EXPECT_EQ(b_now_seen, 0);  // B's clock, not A's 250
  EXPECT_EQ(a.pending_events(), 0u);
  EXPECT_EQ(b.pending_events(), 1u);
  EXPECT_EQ(b.run_until(100), 1u);
}

TEST(SimulatorShards, ParallelAdvanceMatchesSerialAdvance) {
  // Same event plan, advanced with and without a worker pool: per-shard
  // execution traces must be identical (each shard is single-threaded
  // either way; the pool only overlaps different shards in time).
  auto run = [](util::ThreadPool* pool) {
    Simulator sim;
    sim.configure_shards(4);
    std::vector<std::vector<TimeUs>> trace(4);
    // A periodic chain per shard with a shard-specific phase: each tick
    // reschedules itself from inside event execution, so the whole chain
    // lives in shard s.
    std::function<void(std::size_t)> tick = [&](std::size_t s) {
      trace[s].push_back(sim.now());
      sim.schedule_in(40, [&tick, s] { tick(s); });
    };
    for (std::size_t s = 0; s < 4; ++s) {
      const auto binding = sim.bind_shard(s);
      sim.schedule_at(10 + static_cast<TimeUs>(s), [&tick, s] { tick(s); });
    }
    std::size_t total = 0;
    for (int tick = 0; tick < 5; ++tick) {
      total += sim.run_for(1000, pool);
    }
    return std::make_pair(total, trace);
  };
  util::ThreadPool pool(4);
  const auto serial = run(nullptr);
  const auto pooled = run(&pool);
  EXPECT_EQ(serial.first, pooled.first);
  EXPECT_EQ(serial.second, pooled.second);
  EXPECT_GT(serial.first, 0u);
}

/// Per-domain firing records of a sharded run: (time, event id).
using DomainTraces = std::vector<std::vector<std::pair<TimeUs, int>>>;

/// A fan-out event: records itself, then schedules two children through
/// the Simulator (routed to the executing shard, inheriting the tag)
/// until `depth` runs out.
void fan_out(Simulator* sim, DomainTraces* traces, std::uint32_t domain,
             int id, int depth) {
  (*traces)[domain].emplace_back(sim->now(), id);
  if (depth == 0) return;
  for (int child = 0; child < 2; ++child) {
    const int next = id * 2 + child;
    sim->schedule_in(5 + next % 11, [sim, traces, domain, next, depth] {
      fan_out(sim, traces, domain, next, depth - 1);
    });
  }
}

/// `shards` shards, domain d bound to shard d, each seeded with fan-outs
/// that grow its free list; advanced tick by tick, with every domain
/// moved to another shard between ticks 2 and 3 and back after tick 5.
DomainTraces run_fan_out_with_migrations(std::size_t shards,
                                         util::ThreadPool* pool) {
  Simulator sim;
  sim.configure_shards(shards);
  DomainTraces traces(shards);
  for (std::size_t d = 0; d < shards; ++d) {
    const auto domain = static_cast<std::uint32_t>(d);
    const auto binding = sim.bind_shard(d, domain);
    for (int root = 1; root <= 4; ++root) {
      sim.schedule_at(root * 3 + static_cast<TimeUs>(d),
                      [s = &sim, t = &traces, domain, root] {
                        fan_out(s, t, domain, root, 9);
                      });
    }
  }
  for (int tick = 0; tick < 8; ++tick) {
    if (tick == 3 || tick == 6) {
      for (std::size_t d = 0; d < shards; ++d) {
        const std::size_t home = d;
        const std::size_t away = (d + 3) % shards;
        sim.migrate_domain(static_cast<std::uint32_t>(d),
                           tick == 3 ? home : away, tick == 3 ? away : home);
      }
    }
    sim.run_for(20, pool);
  }
  return traces;
}

TEST(SimulatorShards, MigratedDomainsFireAsInAnUnmigratedTwin) {
  // The twin never migrates; per-domain traces must not notice the moves.
  auto run = [](bool migrate) {
    Simulator sim;
    sim.configure_shards(2);
    DomainTraces traces(2);
    for (std::uint32_t d = 0; d < 2; ++d) {
      const auto binding = sim.bind_shard(0, d);
      for (int root = 1; root <= 6; ++root) {
        sim.schedule_at(root * 2, [s = &sim, t = &traces, d, root] {
          fan_out(s, t, d, root, 6);
        });
      }
    }
    sim.run_for(25);
    if (migrate) sim.migrate_domain(1, 0, 1);
    sim.run_for(200);
    return std::make_pair(traces, sim.shard(1).executed_events());
  };
  const auto twin = run(false);
  const auto moved = run(true);
  ASSERT_FALSE(twin.first[1].empty());
  EXPECT_EQ(moved.first, twin.first);
  EXPECT_EQ(twin.second, 0u);
  EXPECT_GT(moved.second, 0u);  // domain 1 really ran in shard 1
}

TEST(SimulatorShards, MigrateRoundTripDoesNotGrowTheSlotPool) {
  Simulator sim;
  sim.configure_shards(2);
  int fired = 0;
  {
    const auto binding = sim.bind_shard(0, 1);
    for (int i = 0; i < 3000; ++i) sim.schedule_at(100 + i % 50, [&] { ++fired; });
  }
  const std::size_t slots = sim.slot_pool().size();
  sim.migrate_domain(1, 0, 1);
  sim.migrate_domain(1, 1, 0);
  sim.migrate_domain(1, 0, 1);
  EXPECT_EQ(sim.slot_pool().size(), slots);
  EXPECT_EQ(sim.shard(1).pending_events(), 3000u);
  sim.run_until(1000);
  EXPECT_EQ(fired, 3000);
  // The slots came home to shard 1's free list: refilling it grows nothing.
  {
    const auto binding = sim.bind_shard(1, 1);
    for (int i = 0; i < 3000; ++i) sim.schedule_at(2000, [&] { ++fired; });
  }
  EXPECT_EQ(sim.slot_pool().size(), slots);
  sim.run_until(3000);
  EXPECT_EQ(fired, 6000);
}

TEST(SimulatorShards, ConcurrentPoolGrowthAndMigrationMatchSerialRun) {
  // Eight shards on one slot pool grow their free lists at the same time
  // on a worker pool, then trade domains; the result must equal the
  // serial run (the thread-sanitizer build checks the shared pool).
  util::ThreadPool pool(3);
  const DomainTraces serial = run_fan_out_with_migrations(8, nullptr);
  const DomainTraces pooled = run_fan_out_with_migrations(8, &pool);
  for (const auto& trace : serial) ASSERT_GT(trace.size(), 1000u);
  EXPECT_EQ(pooled, serial);
}

TEST(SimulatorShards, WarmScheduleAndRunAreAllocationFree) {
  if (!util::allocation_hook_active()) {
    GTEST_SKIP() << "counting allocator hook not linked in";
  }
  Simulator sim;
  sim.configure_shards(4);
  std::uint64_t ran = 0;
  // A standing population per shard, like the armed RPC timeouts.
  for (std::size_t s = 0; s < 4; ++s) {
    const auto binding = sim.bind_shard(s, static_cast<std::uint32_t>(s));
    for (int i = 0; i < 500; ++i) sim.schedule_at(1'000'000'000 + i, [&ran] { ++ran; });
  }
  // One cycle: an out-of-event schedule into a shard, whose event
  // schedules a follow-up from inside (routed to its own shard).
  auto cycle = [&](int i) {
    const auto s = static_cast<std::size_t>(i % 4);
    const auto binding = sim.bind_shard(s, static_cast<std::uint32_t>(s));
    sim.schedule_in(1 + i % 5, [&ran, &sim] {
      ++ran;
      sim.schedule_in(2, [&ran] { ++ran; });
    });
    sim.run_for(4);
  };
  for (int i = 0; i < 1000; ++i) cycle(i);  // warm heaps, free lists, counters
  const std::uint64_t ran_before = ran;
  util::AllocTally tally;
  for (int i = 0; i < 10'000; ++i) cycle(i);
  EXPECT_EQ(tally.delta(), 0u);
  EXPECT_GT(ran, ran_before);
}

}  // namespace
}  // namespace capes::sim
