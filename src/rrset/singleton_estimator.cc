#include "rrset/singleton_estimator.h"

#include <algorithm>

#include "rrset/parallel_sampler.h"

namespace isa::rrset {

Result<std::vector<double>> EstimateAllSingletonSpreads(
    const graph::Graph& g, std::span<const double> probs, uint64_t theta,
    uint64_t seed) {
  if (theta == 0) {
    return Status::InvalidArgument("EstimateAllSingletonSpreads: theta == 0");
  }
  if (g.num_nodes() == 0) return std::vector<double>{};
  // Batches bound the member buffer; they never change which sets are
  // drawn, since set `id` depends only on (seed, id).
  constexpr uint64_t kBatch = uint64_t{1} << 16;
  ParallelSampler sampler(g, probs, DiffusionModel::kIndependentCascade,
                          seed);
  std::vector<uint64_t> count(g.num_nodes(), 0);
  std::vector<graph::NodeId> nodes;
  std::vector<uint32_t> sizes;
  for (uint64_t first = 0; first < theta; first += kBatch) {
    sampler.SampleToBuffer(first, std::min(kBatch, theta - first), &nodes,
                           &sizes);
    for (const graph::NodeId v : nodes) ++count[v];
  }
  std::vector<double> out(g.num_nodes());
  const double scale =
      static_cast<double>(g.num_nodes()) / static_cast<double>(theta);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    out[u] = std::max(1.0, static_cast<double>(count[u]) * scale);
  }
  return out;
}

}  // namespace isa::rrset
