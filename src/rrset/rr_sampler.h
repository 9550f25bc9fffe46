// Random reverse-reachable (RR) set sampling (Borgs et al., used by TIM).
//
// Under IC with arc probabilities p: a random RR set is generated by picking
// a target node w uniformly at random, then collecting every node that can
// reach w in a possible world where each arc survives independently with its
// probability. The sampler runs a lazy reverse BFS: arcs are flipped only
// when the frontier reaches them, which is equivalent to materializing the
// whole world. For a sample R of RR sets, n · (fraction of R covered by S)
// is an unbiased estimator of the spread σ(S).
//
// Ad-specificity (TIC): each ad has its own arc probabilities (Eq. 1), so
// each advertiser keeps its own sampler + collection, as in Algorithm 2.

#ifndef ISA_RRSET_RR_SAMPLER_H_
#define ISA_RRSET_RR_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace isa::rrset {

/// Propagation model the RR sets are drawn under. RR-set theory (Borgs et
/// al.) covers all *triggering* models:
///   - Independent Cascade: each in-arc (u, v) is live independently with
///     probability p_{u,v};
///   - Linear Threshold: node v picks AT MOST ONE live in-arc, arc (u, v)
///     with probability b_{u,v} (and none with 1 − Σ_u b_{u,v}; requires
///     Σ_u b_{u,v} ≤ 1 — weighted-cascade weights satisfy this exactly).
enum class DiffusionModel {
  kIndependentCascade,
  kLinearThreshold,
};

/// Generates random RR sets for one (graph, arc-probability) pair.
/// Not thread-safe; create one per thread.
class RrSampler {
 public:
  /// `probs` is indexed by forward EdgeId and must outlive the sampler.
  RrSampler(const graph::Graph& g, std::span<const double> probs,
            DiffusionModel model = DiffusionModel::kIndependentCascade);

  /// Samples one RR set into `out` (cleared first). Returns the root node.
  /// Also accumulates `width` — the number of arcs examined — which the
  /// KPT estimator consumes.
  graph::NodeId SampleInto(Rng& rng, std::vector<graph::NodeId>* out);

  /// Samples the RR sets with absolute ids [first_id, first_id + count),
  /// set `id` from its own substream Rng(HashSeed(base_seed, id)), into
  /// `sizes` (one cardinality per set) and `nodes` (the concatenated
  /// members), both cleared first — the shape RrStore::AppendBatch takes.
  /// Each set depends only on (base_seed, id); this is the one loop that
  /// turns a (seed, set id) pair into an RR set, shared by
  /// ParallelSampler's workers and the cold-chunk re-sampler.
  void SampleIds(uint64_t base_seed, uint64_t first_id, uint64_t count,
                 std::vector<uint32_t>* sizes,
                 std::vector<graph::NodeId>* nodes);

  /// Arcs examined by the last SampleInto call (the TIM "width" w(R) used
  /// in KPT estimation is the in-arc count of the set's nodes; we report
  /// exactly that).
  uint64_t last_width() const { return last_width_; }

 private:
  const graph::Graph& g_;
  std::span<const double> probs_;
  DiffusionModel model_;
  std::vector<uint32_t> visited_epoch_;
  uint32_t epoch_ = 0;
  uint64_t last_width_ = 0;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_RR_SAMPLER_H_
