#include "core/problem.h"

#include <algorithm>
#include <unordered_set>

#include "common/strings.h"

namespace isa::core {

Result<RmInstance> RmInstance::Create(
    const graph::Graph& g, const topic::TopicEdgeProbabilities& topics,
    std::vector<AdvertiserSpec> ads,
    std::vector<std::vector<double>> incentives) {
  if (ads.empty()) {
    return Status::InvalidArgument("RmInstance: need >= 1 advertiser");
  }
  if (incentives.size() != ads.size()) {
    return Status::InvalidArgument(
        StrFormat("RmInstance: %zu incentive schedules for %zu ads",
                  incentives.size(), ads.size()));
  }
  for (size_t i = 0; i < ads.size(); ++i) {
    if (!(ads[i].cpe > 0.0)) {  // NaN too
      return Status::InvalidArgument(
          StrFormat("RmInstance: ad %zu has cpe <= 0 or NaN", i));
    }
    if (!(ads[i].budget > 0.0)) {
      return Status::InvalidArgument(
          StrFormat("RmInstance: ad %zu has budget <= 0 or NaN", i));
    }
    if (incentives[i].size() != g.num_nodes()) {
      return Status::InvalidArgument(
          StrFormat("RmInstance: ad %zu has %zu incentives for %u nodes", i,
                    incentives[i].size(), g.num_nodes()));
    }
    for (double c : incentives[i]) {
      if (!(c >= 0.0)) {
        return Status::InvalidArgument(
            StrFormat("RmInstance: ad %zu has a negative or NaN incentive", i));
      }
    }
  }

  RmInstance inst;
  inst.g_ = &g;
  inst.ad_probs_.reserve(ads.size());
  for (const AdvertiserSpec& spec : ads) {
    auto mixed = topic::AdProbabilities::Mix(topics, spec.gamma);
    if (!mixed.ok()) return mixed.status();
    inst.ad_probs_.push_back(std::move(mixed).value());
  }
  inst.max_incentive_.reserve(ads.size());
  for (const auto& sched : incentives) {
    inst.max_incentive_.push_back(
        *std::max_element(sched.begin(), sched.end()));
  }
  inst.ads_ = std::move(ads);
  inst.incentives_ = std::move(incentives);
  return inst;
}

uint64_t Allocation::TotalSeeds() const {
  uint64_t total = 0;
  for (const auto& s : seed_sets) total += s.size();
  return total;
}

bool Allocation::IsDisjoint(uint32_t num_nodes) const {
  std::vector<uint8_t> seen(num_nodes, 0);
  for (const auto& s : seed_sets) {
    for (graph::NodeId u : s) {
      if (u >= num_nodes || seen[u]) return false;
      seen[u] = 1;
    }
  }
  return true;
}

}  // namespace isa::core
