#include "diffusion/cascade.h"

namespace isa::diffusion {

CascadeSimulator::CascadeSimulator(const graph::Graph& g)
    : g_(g), visited_epoch_(g.num_nodes(), 0) {
  frontier_.reserve(1024);
}

uint32_t CascadeSimulator::RunOnce(std::span<const double> probs,
                                   std::span<const graph::NodeId> seeds,
                                   Rng& rng) {
  ++epoch_;
  frontier_.clear();
  uint32_t activated = 0;
  for (graph::NodeId s : seeds) {
    if (visited_epoch_[s] != epoch_) {
      visited_epoch_[s] = epoch_;
      frontier_.push_back(s);
      ++activated;
    }
  }
  // BFS order; each arc is flipped at most once because a node enters the
  // frontier at most once per epoch.
  for (size_t head = 0; head < frontier_.size(); ++head) {
    const graph::NodeId u = frontier_[head];
    const graph::EdgeId begin = g_.OutEdgeBegin(u);
    auto neighbors = g_.OutNeighbors(u);
    for (size_t k = 0; k < neighbors.size(); ++k) {
      const graph::NodeId v = neighbors[k];
      if (visited_epoch_[v] == epoch_) continue;
      if (rng.NextBernoulli(probs[begin + k])) {
        visited_epoch_[v] = epoch_;
        frontier_.push_back(v);
        ++activated;
      }
    }
  }
  return activated;
}

double CascadeSimulator::EstimateSpread(std::span<const double> probs,
                                        std::span<const graph::NodeId> seeds,
                                        uint32_t runs, uint64_t seed) {
  if (runs == 0 || seeds.empty()) return 0.0;
  Rng rng(seed);
  uint64_t total = 0;
  for (uint32_t r = 0; r < runs; ++r) total += RunOnce(probs, seeds, rng);
  return static_cast<double>(total) / runs;
}

std::vector<double> EstimateSingletonSpreads(const graph::Graph& g,
                                             std::span<const double> probs,
                                             uint32_t runs, uint64_t seed) {
  CascadeSimulator sim(g);
  std::vector<double> out(g.num_nodes(), 0.0);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const graph::NodeId seeds[1] = {u};
    out[u] = sim.EstimateSpread(probs, seeds, runs, HashSeed(seed, u));
  }
  return out;
}

std::vector<double> SingletonSpreadProxy(const graph::Graph& g) {
  std::vector<double> out(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    out[u] = 1.0 + static_cast<double>(g.OutDegree(u));
  }
  return out;
}

}  // namespace isa::diffusion
