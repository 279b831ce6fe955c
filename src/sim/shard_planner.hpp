#pragma once
// Rate-aware placement of control domains onto simulator shards.
//
// The sharded event loop (sim/simulator.hpp) advances one EventQueue per
// shard to a time-synced barrier every sampling tick, so the loop runs at
// the pace of its busiest shard. The planner decides which domain lives
// on which shard:
//
//   - kStatic: domain d on shard d % num_shards, fixed for the run (the
//     historical layout).
//   - kRate: at every phase boundary, greedily bin-pack domains onto
//     shards by last-phase observed event counts (LPT — sort by weight
//     descending, assign each to the least-loaded shard), so one hot
//     domain no longer serializes the barrier while other shards idle.
//
// Inputs are deterministic per-domain executed-event counts (never wall
// clock) and every tie breaks on the lower domain / shard index, so a
// plan is a pure function of the simulated history: sharded == serial
// and static == rate stay bit-identical — placement only changes which
// thread runs a domain's events, never their order within the domain.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace capes::sim {

enum class ShardPlanKind {
  kStatic,  ///< round-robin d % num_shards, fixed for the run
  kRate,    ///< LPT bin-packing by last-phase event counts, per phase
};

/// Plan specs (and capes.sim.shard_plan conf values), indexed by kind.
inline constexpr std::string_view kShardPlanNames[] = {"static", "rate"};

/// Canonical spec string for a plan kind ("static" / "rate").
const char* shard_plan_name(ShardPlanKind kind);

/// Parse a plan spec ("static" or "rate"). Returns false and fills
/// `error` on anything else.
bool parse_shard_plan_spec(const std::string& spec, ShardPlanKind* out,
                           std::string* error);

/// One placement decision: shard per domain plus the per-shard load the
/// plan was packed from (domain count for a static plan, summed event
/// weights for a rate plan).
struct ShardPlan {
  std::vector<std::size_t> shard_of_domain;
  std::vector<std::uint64_t> shard_load;

  /// Max/mean of shard_load: 1.0 is perfectly balanced. Returns 1.0 for
  /// an empty or zero-load plan.
  double max_over_mean() const;
};

class ShardPlanner {
 public:
  ShardPlanner(ShardPlanKind kind, std::size_t num_domains,
               std::size_t num_shards);

  ShardPlanKind kind() const { return kind_; }
  std::size_t num_domains() const { return num_domains_; }
  std::size_t num_shards() const { return num_shards_; }

  /// The round-robin layout (domain d on shard d % num_shards). Also the
  /// deterministic fallback whenever there is no rate signal yet.
  ShardPlan static_plan() const;

  /// Pack domains onto shards from per-domain executed-event counts
  /// (`domain_events[d]` = events domain d ran since the last plan). A
  /// kStatic planner — or an all-zero count vector — returns
  /// static_plan(). Ties break on the lower domain index (sort) and the
  /// lower shard index (target choice), so equal weights reproduce the
  /// static round-robin exactly.
  ShardPlan plan(const std::vector<std::uint64_t>& domain_events) const;

 private:
  ShardPlanKind kind_;
  std::size_t num_domains_;
  std::size_t num_shards_;
};

}  // namespace capes::sim
