#include "sim/simulator.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "util/thread_pool.hpp"

namespace capes::sim {

thread_local const Simulator* Simulator::bound_sim_ = nullptr;
thread_local std::size_t Simulator::bound_shard_ = 0;
thread_local std::uint32_t Simulator::bound_domain_ = 0;

Simulator::Simulator() {
  shards_.push_back(std::make_unique<EventQueue>(pool_));
  shards_[0]->set_owner(this);
}

void Simulator::configure_shards(std::size_t n) {
  if (n < 1) n = 1;
  if (pending_events() != 0 || executed_events() != 0 || now() != 0) {
    std::fprintf(stderr,
                 "Simulator::configure_shards: shards must be configured "
                 "before any event is scheduled or the clock moves\n");
    std::abort();
  }
  shards_.clear();
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<EventQueue>(pool_));
    shards_.back()->set_owner(this);
  }
}

Simulator::ShardBinding::~ShardBinding() {
  if (active_) {
    bound_sim_ = previous_sim_;
    bound_shard_ = previous_shard_;
    bound_domain_ = previous_domain_;
  }
}

Simulator::ShardBinding Simulator::bind_shard(std::size_t shard,
                                              std::uint32_t domain) const {
  if (shard >= shards_.size()) {
    std::fprintf(stderr, "Simulator::bind_shard: shard %zu out of range (%zu)\n",
                 shard, shards_.size());
    std::abort();
  }
  ShardBinding binding(bound_sim_, bound_shard_, bound_domain_);
  bound_sim_ = this;
  bound_shard_ = shard;
  bound_domain_ = domain;
  return binding;
}

std::size_t Simulator::run_until(TimeUs t_end, util::ThreadPool* pool) {
  if (shards_.size() == 1) return shards_[0]->run_until(t_end);
  // Per-slot tallies instead of an atomic sum: parallel_for hands each
  // index to exactly one worker, so the writes never alias. The slots
  // double as the per-shard barrier stats (events + wall busy time) the
  // phase reports surface; assign() reuses capacity after the first tick.
  last_advance_events_.assign(shards_.size(), 0);
  last_advance_busy_ns_.assign(shards_.size(), 0);
  auto advance = [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    last_advance_events_[i] = shards_[i]->run_until(t_end);
    last_advance_busy_ns_[i] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  if (pool != nullptr) {
    pool->parallel_for(shards_.size(), advance);
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) advance(i);
  }
  std::size_t total = 0;
  for (std::size_t n : last_advance_events_) total += n;
  return total;
}

void Simulator::migrate_domain(std::uint32_t domain, std::size_t from,
                               std::size_t to) {
  if (from >= shards_.size() || to >= shards_.size()) {
    std::fprintf(stderr,
                 "Simulator::migrate_domain: shard %zu -> %zu out of range "
                 "(%zu)\n",
                 from, to, shards_.size());
    std::abort();
  }
  if (EventQueue::current() != nullptr) {
    std::fprintf(stderr,
                 "Simulator::migrate_domain: must run between advances, not "
                 "from inside an event\n");
    std::abort();
  }
  if (from == to) return;
  shards_[from]->move_domain(domain, *shards_[to]);
}

void Simulator::domain_executed(std::vector<std::uint64_t>& out,
                                std::size_t num_domains) const {
  out.assign(num_domains, 0);
  for (const auto& shard : shards_) {
    const auto& counts = shard->executed_by_domain();
    const std::size_t n = std::min(num_domains, counts.size());
    for (std::size_t d = 0; d < n; ++d) out[d] += counts[d];
  }
}

bool Simulator::step() {
  EventQueue* next = nullptr;
  for (auto& shard : shards_) {
    if (shard->next_event_time() == EventQueue::kNoEvent) continue;
    if (next == nullptr || shard->next_event_time() < next->next_event_time()) {
      next = shard.get();
    }
  }
  return next != nullptr && next->step();
}

std::size_t Simulator::pending_events() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_events();
  return total;
}

std::size_t Simulator::executed_events() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->executed_events();
  return total;
}

}  // namespace capes::sim
