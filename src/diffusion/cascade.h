// Forward Monte-Carlo simulation of the (T)IC cascade process.
//
// A cascade proceeds in rounds: when node u becomes active (clicks ad i),
// it gets one chance to activate each inactive out-neighbor v, succeeding
// with probability p^i_{u,v}. The expected final number of active nodes is
// the spread σ_i(S). This module provides a reusable simulator with
// epoch-stamped visited arrays (no per-run clearing) plus batch estimators.

#ifndef ISA_DIFFUSION_CASCADE_H_
#define ISA_DIFFUSION_CASCADE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"

namespace isa::diffusion {

/// Reusable single-threaded cascade simulator bound to one graph.
/// Not thread-safe; create one per thread.
class CascadeSimulator {
 public:
  explicit CascadeSimulator(const graph::Graph& g);

  /// Runs one cascade from `seeds` under arc probabilities `probs`
  /// (indexed by forward EdgeId) and returns the number of activated nodes
  /// (always >= |unique seeds|, seeds activate themselves).
  uint32_t RunOnce(std::span<const double> probs,
                   std::span<const graph::NodeId> seeds, Rng& rng);

  /// Mean activated count over `runs` cascades with a fresh Rng(seed).
  double EstimateSpread(std::span<const double> probs,
                        std::span<const graph::NodeId> seeds, uint32_t runs,
                        uint64_t seed);

 private:
  const graph::Graph& g_;
  std::vector<uint32_t> visited_epoch_;
  std::vector<graph::NodeId> frontier_;
  uint32_t epoch_ = 0;
};

/// σ({u}) for every node u via MC (`runs` cascades each). O(n · runs · ...):
/// intended for quality-experiment graphs; use SingletonSpreadProxy or the
/// RR-set batch estimator (rrset/singleton_estimator.h) at scale.
std::vector<double> EstimateSingletonSpreads(const graph::Graph& g,
                                             std::span<const double> probs,
                                             uint32_t runs, uint64_t seed);

/// The paper's large-graph proxy: "we use the out-degree of the nodes as a
/// proxy to σ_i({u})". We return 1 + out-degree since σ({u}) >= 1 always
/// (the seed engages itself); this also keeps sublinear (log) incentives
/// finite on sink nodes.
std::vector<double> SingletonSpreadProxy(const graph::Graph& g);

}  // namespace isa::diffusion

#endif  // ISA_DIFFUSION_CASCADE_H_
