#include "sim/fault.hpp"

#include <algorithm>

namespace capes::sim {

namespace {

/// splitmix64 finalizer — the per-fate hash (the SimTransport pattern).
/// Statistically strong enough for a rate model and, unlike a shared RNG
/// stream, order-independent: the fate of (kind, node, tick) never
/// depends on which other fates were evaluated before it.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Map a 64-bit hash to a uniform double in [0, 1).
double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Independent per-(kind, node, tick) draw: chain the key through the
/// mixer once per field (counter mode), tagged so distinct kinds see
/// independent realizations even on one node.
bool fate_starts(const FaultPlan& plan, double rate, std::uint64_t kind_tag,
                 std::uint64_t node_key, std::int64_t tick) {
  if (rate <= 0.0 || tick < 0) return false;
  std::uint64_t key = plan.seed;
  key = mix64(key ^ mix64(kind_tag));
  key = mix64(key ^ mix64(node_key ^ 0x6e6f6465ULL));  // "node"
  key = mix64(key ^ static_cast<std::uint64_t>(tick));
  return to_unit(mix64(key)) < rate;
}

/// Window membership: active at `tick` iff some start within the last
/// `window` ticks — exactly the union of per-start windows, so the pure
/// predicate and the injector's until-extension state always agree.
template <typename Starts>
bool active_in_window(std::int64_t tick, std::int64_t window, Starts starts) {
  const std::int64_t first = std::max<std::int64_t>(0, tick - window + 1);
  for (std::int64_t s = tick; s >= first; --s) {
    if (starts(s)) return true;
  }
  return false;
}

constexpr std::uint64_t kCrashTag = 0x6372617368ULL;      // "crash"
constexpr std::uint64_t kStragglerTag = 0x736c6f77ULL;    // "slow"
constexpr std::uint64_t kPartitionTag = 0x70617274ULL;    // "part"

}  // namespace

bool crash_starts(const FaultPlan& plan, std::uint64_t node_key,
                  std::int64_t tick) {
  return fate_starts(plan, plan.ost_crash, kCrashTag, node_key, tick);
}

bool ost_down(const FaultPlan& plan, std::uint64_t node_key,
              std::int64_t tick) {
  return active_in_window(tick, plan.restart_ticks, [&](std::int64_t s) {
    return crash_starts(plan, node_key, s);
  });
}

bool straggle_starts(const FaultPlan& plan, std::uint64_t node_key,
                     std::int64_t tick) {
  return fate_starts(plan, plan.straggler, kStragglerTag, node_key, tick);
}

bool disk_straggling(const FaultPlan& plan, std::uint64_t node_key,
                     std::int64_t tick) {
  return active_in_window(tick, plan.straggler_ticks, [&](std::int64_t s) {
    return straggle_starts(plan, node_key, s);
  });
}

bool partition_starts(const FaultPlan& plan, std::uint32_t domain,
                      std::int64_t tick) {
  return fate_starts(plan, plan.partition, kPartitionTag, domain, tick);
}

bool domain_partitioned(const FaultPlan& plan, std::uint32_t domain,
                        std::int64_t tick) {
  return active_in_window(tick, plan.partition_ticks, [&](std::int64_t s) {
    return partition_starts(plan, domain, s);
  });
}

bool parse_fault_spec(std::string_view spec, FaultPlan* out,
                      std::string* error) {
  const std::size_t colon = spec.find(':');
  const std::string_view scheme = spec.substr(0, colon);
  FaultPlan parsed;
  if (scheme == "off") {
    if (colon != std::string_view::npos) {
      return util::reject(error, "fault spec 'off' takes no options");
    }
  } else if (scheme != "faults") {
    return util::reject(error, "unknown fault spec '" + std::string(scheme) +
                                   "' (expected off or faults)");
  } else if (colon != std::string_view::npos &&
             !util::parse_options(kFaultOptions, spec.substr(colon + 1),
                                  "fault kind or option", &parsed, error)) {
    return false;
  }
  *out = parsed;
  return true;
}

std::string fault_spec_string(const FaultPlan& plan) {
  if (!plan.enabled() && !plan.seed_explicit) return "off";
  return "faults:" + util::format_options(kFaultOptions, plan);
}

FaultInjector::FaultInjector(Simulator& sim, const FaultPlan& plan,
                             std::uint32_t domain, FaultTarget* target)
    : sim_(sim), plan_(plan), domain_(domain), target_(target) {
  const std::size_t nodes = target_ != nullptr ? target_->num_fault_nodes() : 0;
  down_until_.assign(nodes, 0);
  slow_until_.assign(nodes, 0);
  down_applied_.assign(nodes, 0);
  slow_applied_.assign(nodes, 0);
  last_events_.reserve(nodes + 2);
}

bool FaultInjector::partitioned(std::int64_t tick) const {
  return domain_partitioned(plan_, domain_, tick);
}

void FaultInjector::on_tick(std::int64_t tick) {
  last_events_.clear();
  bool degraded = false;
  const TimeUs now = sim_.now();
  for (std::size_t n = 0; n < down_until_.size(); ++n) {
    const std::uint64_t key =
        fault_node_key(domain_, static_cast<std::uint32_t>(n));
    if (plan_.ost_crash > 0.0) {
      if (crash_starts(plan_, key, tick)) {
        // Overlapping starts extend the window (union semantics, exactly
        // the pure ost_down predicate).
        down_until_[n] = tick + plan_.restart_ticks;
        ++counters_.faults_injected;
        ++counters_.ost_crashes;
        last_events_.push_back({FaultKind::kOstCrash, key});
      }
      const bool down_now = tick < down_until_[n];
      if (down_now != (down_applied_[n] != 0)) {
        down_applied_[n] = down_now ? 1 : 0;
        FaultTarget* target = target_;
        sim_.schedule_at(now,
                         [target, n, down_now] { target->apply_node_down(n, down_now); });
      }
      degraded = degraded || down_now;
    }
    if (plan_.straggler > 0.0) {
      if (straggle_starts(plan_, key, tick)) {
        slow_until_[n] = tick + plan_.straggler_ticks;
        ++counters_.faults_injected;
        ++counters_.stragglers;
        last_events_.push_back({FaultKind::kStraggler, key});
      }
      const bool slow_now = tick < slow_until_[n];
      if (slow_now != (slow_applied_[n] != 0)) {
        slow_applied_[n] = slow_now ? 1 : 0;
        FaultTarget* target = target_;
        const double factor = slow_now ? plan_.slow_factor : 1.0;
        sim_.schedule_at(now,
                         [target, n, factor] { target->apply_node_slow(n, factor); });
      }
      degraded = degraded || slow_now;
    }
  }
  if (plan_.partition > 0.0) {
    if (partition_starts(plan_, domain_, tick)) {
      ++counters_.faults_injected;
      ++counters_.partitions;
      last_events_.push_back({FaultKind::kPartition, domain_});
    }
    degraded = degraded || domain_partitioned(plan_, domain_, tick);
  }
  if (degraded) {
    ++counters_.ticks_degraded;
    last_events_.push_back({FaultKind::kDegraded, domain_});
  }
}

}  // namespace capes::sim
