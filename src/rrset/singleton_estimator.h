// Batch estimation of all singleton spreads σ({u}) from one RR sample:
// σ({u}) ≈ n · |{R : u ∈ R}| / θ, simultaneously for every node. This is
// the scalable alternative to per-node Monte-Carlo when assigning seed
// incentives c_i(u) = f(σ_i({u})) on large graphs (ablation vs. the
// out-degree proxy the paper uses for DBLP / LIVEJOURNAL).
//
// The sample is the IC RR sets with ids [0, θ) drawn by an
// rrset::ParallelSampler over `seed`: set `id` comes from the substream
// HashSeed(seed, id), as everywhere else, so the estimate is the same at
// any worker count: on the caller's pool, or inline without one.

#ifndef ISA_RRSET_SINGLETON_ESTIMATOR_H_
#define ISA_RRSET_SINGLETON_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace isa {
class ThreadPool;
}

namespace isa::rrset {

/// Estimates σ({u}) for all u from `theta` fresh RR sets, sampled on
/// `pool` (every one of its threads), or inline when it is null.
/// Deterministic in `seed` at any pool size. Returns one estimate per
/// node, each >= 1: a node absent from every sampled set gets 1, since
/// σ({u}) >= 1.
Result<std::vector<double>> EstimateAllSingletonSpreads(
    const graph::Graph& g, std::span<const double> probs, uint64_t theta,
    uint64_t seed, ThreadPool* pool);

}  // namespace isa::rrset

#endif  // ISA_RRSET_SINGLETON_ESTIMATOR_H_
