#include "sim/shard_planner.hpp"

#include <algorithm>
#include <numeric>

#include "util/options.hpp"

namespace capes::sim {

const char* shard_plan_name(ShardPlanKind kind) {
  return kShardPlanNames[static_cast<std::size_t>(kind)].data();
}

bool parse_shard_plan_spec(const std::string& spec, ShardPlanKind* out,
                           std::string* error) {
  const auto kind = util::find_name(kShardPlanNames, spec);
  if (!kind) {
    return util::reject(error, "unknown shard plan '" + spec + "' (expected " +
                                   util::join_names(kShardPlanNames) + ")");
  }
  *out = static_cast<ShardPlanKind>(*kind);
  return true;
}

double ShardPlan::max_over_mean() const {
  if (shard_load.empty()) return 1.0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t load : shard_load) {
    total += load;
    max = std::max(max, load);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shard_load.size());
  return static_cast<double>(max) / mean;
}

ShardPlanner::ShardPlanner(ShardPlanKind kind, std::size_t num_domains,
                           std::size_t num_shards)
    : kind_(kind),
      num_domains_(num_domains),
      num_shards_(num_shards == 0 ? 1 : num_shards) {}

ShardPlan ShardPlanner::static_plan() const {
  ShardPlan plan;
  plan.shard_of_domain.resize(num_domains_);
  plan.shard_load.assign(num_shards_, 0);
  for (std::size_t d = 0; d < num_domains_; ++d) {
    plan.shard_of_domain[d] = d % num_shards_;
    ++plan.shard_load[d % num_shards_];
  }
  return plan;
}

ShardPlan ShardPlanner::plan(
    const std::vector<std::uint64_t>& domain_events) const {
  if (kind_ == ShardPlanKind::kStatic) return static_plan();
  const bool any = std::any_of(domain_events.begin(), domain_events.end(),
                               [](std::uint64_t e) { return e > 0; });
  if (!any) return static_plan();

  // LPT: heaviest domain first, each onto the least-loaded shard. A
  // domain weighs its event count plus one, so domains that were idle
  // last phase still spread across shards instead of piling onto
  // whichever shard happens to be lightest.
  std::vector<std::size_t> order(num_domains_);
  std::iota(order.begin(), order.end(), 0);
  auto weight = [&domain_events](std::size_t d) -> std::uint64_t {
    return (d < domain_events.size() ? domain_events[d] : 0) + 1;
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (weight(a) != weight(b)) return weight(a) > weight(b);
    return a < b;
  });

  ShardPlan plan;
  plan.shard_of_domain.resize(num_domains_);
  plan.shard_load.assign(num_shards_, 0);
  for (const std::size_t d : order) {
    std::size_t target = 0;
    for (std::size_t s = 1; s < num_shards_; ++s) {
      if (plan.shard_load[s] < plan.shard_load[target]) target = s;
    }
    plan.shard_of_domain[d] = target;
    plan.shard_load[target] += weight(d);
  }
  return plan;
}

}  // namespace capes::sim
