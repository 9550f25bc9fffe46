// The REVENUE-MAXIMIZATION (RM) problem instance (paper Problem 1).
//
// An RmInstance bundles everything the algorithms consume: the social graph,
// the per-ad influence probabilities (materialized from the TIC model via
// Eq. 1), each advertiser's commercial terms (cpe, budget), and the per-ad
// seed-incentive schedule c_i(u).

#ifndef ISA_CORE_PROBLEM_H_
#define ISA_CORE_PROBLEM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "topic/tic_model.h"
#include "topic/topic_distribution.h"

namespace isa::core {

/// Commercial agreement between the host and one advertiser (paper §2).
struct AdvertiserSpec {
  /// Cost-per-engagement the advertiser pays for each click on its ad.
  double cpe = 1.0;
  /// Total campaign budget B_i (covers engagements + seed incentives).
  double budget = 0.0;
  /// Topic distribution γ_i of the ad over the latent topic space.
  topic::TopicDistribution gamma;
};

/// Immutable problem instance. Holds references to the graph (must outlive
/// the instance) and owns the per-ad probability views and incentives.
class RmInstance {
 public:
  /// Validates and assembles an instance:
  ///  - every advertiser needs cpe > 0 and budget > 0;
  ///  - `incentives[i][u]` = c_i(u) must be present for every (ad, node) and
  ///    non-negative;
  ///  - per-ad arc probabilities are mixed from `topics` via each γ_i.
  static Result<RmInstance> Create(
      const graph::Graph& g, const topic::TopicEdgeProbabilities& topics,
      std::vector<AdvertiserSpec> ads,
      std::vector<std::vector<double>> incentives);

  const graph::Graph& graph() const { return *g_; }
  uint32_t num_ads() const { return static_cast<uint32_t>(ads_.size()); }
  uint32_t num_nodes() const { return g_->num_nodes(); }

  const AdvertiserSpec& ad(uint32_t i) const { return ads_[i]; }
  double cpe(uint32_t i) const { return ads_[i].cpe; }
  double budget(uint32_t i) const { return ads_[i].budget; }

  /// Ad-specific arc probabilities p^i (Eq. 1), indexed by forward EdgeId.
  std::span<const double> ad_probs(uint32_t i) const {
    return ad_probs_[i].probs();
  }

  /// Seed incentive c_i(u).
  double incentive(uint32_t i, graph::NodeId u) const {
    return incentives_[i][u];
  }
  std::span<const double> incentives(uint32_t i) const {
    return incentives_[i];
  }
  /// c^max_i = max_v c_i(v), used by the latent seed-size rule (Eq. 10).
  double max_incentive(uint32_t i) const { return max_incentive_[i]; }

 private:
  RmInstance() = default;

  const graph::Graph* g_ = nullptr;
  std::vector<AdvertiserSpec> ads_;
  std::vector<topic::AdProbabilities> ad_probs_;
  std::vector<std::vector<double>> incentives_;
  std::vector<double> max_incentive_;
};

/// An ads-to-seeds allocation S⃗ = (S_1, ..., S_h).
struct Allocation {
  std::vector<std::vector<graph::NodeId>> seed_sets;

  /// Total number of seeds across all ads.
  uint64_t TotalSeeds() const;
  /// True iff no node appears in two different seed sets (the partition
  /// matroid constraint) and no node repeats within a set.
  bool IsDisjoint(uint32_t num_nodes) const;
};

/// Revenue/payment accounting of an allocation under a spread oracle.
struct AllocationEvaluation {
  std::vector<double> spread;        // σ_i(S_i)
  std::vector<double> revenue;       // π_i = cpe(i) · σ_i
  std::vector<double> seeding_cost;  // c_i(S_i)
  std::vector<double> payment;       // ρ_i = π_i + c_i
  double total_revenue = 0.0;
  double total_seeding_cost = 0.0;
  /// True iff ρ_i ≤ B_i for all i and the allocation is disjoint.
  bool feasible = false;
};

}  // namespace isa::core

#endif  // ISA_CORE_PROBLEM_H_
