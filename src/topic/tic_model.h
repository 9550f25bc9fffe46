// The Topic-aware Independent Cascade (TIC) model of Barbieri et al.,
// as used by the paper (§2): each arc (u,v) carries one influence
// probability p^z_{u,v} per latent topic z, and the ad-specific probability
// is the γ_i-weighted mixture  p^i_{u,v} = Σ_z γ^z_i · p^z_{u,v}  (Eq. 1).
//
// With L = 1 (or identical distributions for all ads) TIC reduces to the
// standard IC model — the paper's EPINIONS / DBLP / LIVEJOURNAL setups.

#ifndef ISA_TOPIC_TIC_MODEL_H_
#define ISA_TOPIC_TIC_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "topic/topic_distribution.h"

namespace isa::topic {

/// Per-topic arc probabilities: L parallel arrays, each indexed by forward
/// EdgeId. Construction is via the factory models below or from raw data.
class TopicEdgeProbabilities {
 public:
  /// Wraps raw per-topic probability arrays; each must have one entry per
  /// graph arc and all values in [0, 1].
  static Result<TopicEdgeProbabilities> Create(
      const graph::Graph& g, std::vector<std::vector<double>> per_topic);

  uint32_t num_topics() const { return static_cast<uint32_t>(p_.size()); }
  uint32_t num_edges() const {
    return p_.empty() ? 0 : static_cast<uint32_t>(p_[0].size());
  }
  std::span<const double> topic(uint32_t z) const { return p_[z]; }
  double prob(uint32_t z, graph::EdgeId e) const { return p_[z][e]; }

  /// Approximate heap footprint in bytes.
  uint64_t MemoryBytes() const;

 private:
  std::vector<std::vector<double>> p_;
};

/// Weighted-Cascade probabilities (Kempe et al.): p_{u,v} = 1 / indeg(v),
/// identical across all L topics. The paper uses this (with L = 1) for
/// EPINIONS, DBLP and LIVEJOURNAL.
Result<TopicEdgeProbabilities> MakeWeightedCascade(const graph::Graph& g,
                                                   uint32_t num_topics = 1);

/// Constant probability p on every (arc, topic).
Result<TopicEdgeProbabilities> MakeUniform(const graph::Graph& g,
                                           uint32_t num_topics, double p);

/// Degree-scaled random: per (arc, topic), U(0,1) / indeg(dst) — a rough
/// stand-in for MLE-learned Flixster probabilities: heterogeneous across
/// topics with weighted-cascade scale. Deterministic in `seed`.
Result<TopicEdgeProbabilities> MakeDegreeScaledRandom(const graph::Graph& g,
                                                      uint32_t num_topics,
                                                      uint64_t seed);

/// Ad-specific probability view: p^i indexed by forward EdgeId (Eq. 1),
/// materialized once per ad (O(L·m)) and shared by the cascade simulator,
/// RR sampler and weighted PageRank.
class AdProbabilities {
 public:
  /// Mixes per-topic probabilities with γ (Eq. 1). Fails if topic counts
  /// disagree.
  static Result<AdProbabilities> Mix(const TopicEdgeProbabilities& topics,
                                     const TopicDistribution& gamma);

  double prob(graph::EdgeId e) const { return p_[e]; }
  std::span<const double> probs() const { return p_; }
  uint32_t num_edges() const { return static_cast<uint32_t>(p_.size()); }

 private:
  std::vector<double> p_;
};

}  // namespace isa::topic

#endif  // ISA_TOPIC_TIC_MODEL_H_
