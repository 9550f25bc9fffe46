// Synthetic graph generators.
//
// The paper evaluates on FLIXSTER, EPINIONS, DBLP and LIVEJOURNAL. Those
// datasets are not redistributable here, so the experiment harness builds
// named stand-ins from these generators with matched size, directedness and
// heavy-tailed degree structure (see DESIGN.md §4). All generators are
// deterministic in their seed.

#ifndef ISA_GRAPH_GENERATORS_H_
#define ISA_GRAPH_GENERATORS_H_

#include <cstdint>

#include "common/status.h"
#include "graph/graph.h"

namespace isa::graph {

/// G(n, m): m arcs sampled uniformly without replacement (no self-loops).
struct ErdosRenyiOptions {
  NodeId num_nodes = 0;
  uint64_t num_edges = 0;
  uint64_t seed = 1;
};
Result<Graph> GenerateErdosRenyi(const ErdosRenyiOptions& options);

/// Directed Barabási–Albert preferential attachment: nodes arrive one at a
/// time, each adding `edges_per_node` arcs to existing nodes chosen
/// proportionally to their current degree. Produces a power-law in-degree
/// tail. If `bidirectional`, each attachment adds arcs in both directions
/// (the undirected-DBLP treatment of the paper: "we direct all edges in both
/// directions").
struct BarabasiAlbertOptions {
  NodeId num_nodes = 0;
  uint32_t edges_per_node = 3;
  bool bidirectional = false;
  uint64_t seed = 1;
};
Result<Graph> GenerateBarabasiAlbert(const BarabasiAlbertOptions& options);

/// R-MAT / stochastic-Kronecker arcs: recursive quadrant descent with
/// probabilities (a, b, c, d), the standard model for social-network-like
/// skew in both in- and out-degree. Duplicates are dropped by the CSR
/// builder so the final edge count can land slightly below `num_edges`;
/// `oversample` compensates.
struct RmatOptions {
  uint32_t scale = 16;  // num_nodes = 2^scale
  uint64_t num_edges = 0;
  double a = 0.57, b = 0.19, c = 0.19, d = 0.05;
  double oversample = 1.10;
  uint64_t seed = 1;
};
Result<Graph> GenerateRmat(const RmatOptions& options);

/// Directed configuration model with Pareto(alpha) in/out degree targets,
/// scaled to hit ~num_edges arcs, endpoints matched uniformly at random.
struct PowerLawOptions {
  NodeId num_nodes = 0;
  uint64_t num_edges = 0;
  double exponent = 2.1;  // degree tail exponent, > 1
  uint64_t seed = 1;
};
Result<Graph> GeneratePowerLaw(const PowerLawOptions& options);

}  // namespace isa::graph

#endif  // ISA_GRAPH_GENERATORS_H_
