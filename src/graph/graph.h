// Immutable directed graph in compressed-sparse-row (CSR) form.
//
// The social graph of the paper: an arc (u, v) means v follows u, so
// influence flows u -> v. Both the forward adjacency (out-neighbors, used by
// the Monte-Carlo cascade simulator) and the transpose adjacency
// (in-neighbors, used by reverse-reachable set sampling) are materialized.
//
// Each arc has a stable EdgeId equal to its position in the forward CSR
// arrays; per-arc attributes (per-topic influence probabilities, mixed per-ad
// probabilities) live in parallel arrays indexed by EdgeId. The transpose
// keeps, for every in-arc, the EdgeId of the corresponding forward arc so a
// reverse BFS can look up the same probability the forward simulator uses.

#ifndef ISA_GRAPH_GRAPH_H_
#define ISA_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace isa::graph {

using NodeId = uint32_t;
using EdgeId = uint32_t;

/// An arc from `src` to `dst` (dst follows src; influence flows src -> dst).
struct Edge {
  NodeId src = 0;
  NodeId dst = 0;

  bool operator==(const Edge&) const = default;
};

/// Immutable CSR digraph with forward and transpose adjacency.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an arbitrary edge list. Self-loops are dropped and
  /// duplicate arcs collapsed (both logged in the returned stats via
  /// dropped_self_loops()/dropped_duplicates()).
  /// Fails with InvalidArgument if any endpoint is >= num_nodes.
  static Result<Graph> FromEdges(NodeId num_nodes,
                                 std::vector<Edge> edges);

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(out_targets_.size()); }

  /// Out-neighbors of u (targets of arcs leaving u).
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }

  /// EdgeIds of the arcs leaving u, parallel to OutNeighbors(u): the k-th
  /// out-neighbor corresponds to EdgeId out_offsets(u) + k.
  EdgeId OutEdgeBegin(NodeId u) const { return out_offsets_[u]; }
  EdgeId OutEdgeEnd(NodeId u) const { return out_offsets_[u + 1]; }

  /// In-neighbors of v (sources of arcs entering v).
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }

  /// Forward EdgeIds of the arcs entering v, parallel to InNeighbors(v).
  std::span<const EdgeId> InEdgeIds(NodeId v) const {
    return {in_edge_ids_.data() + in_offsets_[v],
            in_edge_ids_.data() + in_offsets_[v + 1]};
  }

  /// Position of v's first in-arc in the transpose CSR: InNeighbors(v)[k]
  /// is in-arc InArcBegin(v) + k of [0, num_edges()).
  EdgeId InArcBegin(NodeId v) const { return in_offsets_[v]; }

  uint32_t OutDegree(NodeId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  uint32_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Endpoint lookup by forward EdgeId (O(log n) for src via offset search).
  NodeId EdgeDst(EdgeId e) const { return out_targets_[e]; }
  NodeId EdgeSrc(EdgeId e) const;

  /// Number of self-loops / duplicate arcs dropped during construction.
  uint64_t dropped_self_loops() const { return dropped_self_loops_; }
  uint64_t dropped_duplicates() const { return dropped_duplicates_; }

  /// Approximate heap footprint of the CSR arrays in bytes.
  uint64_t MemoryBytes() const;

 private:
  NodeId num_nodes_ = 0;
  std::vector<EdgeId> out_offsets_;   // n+1
  std::vector<NodeId> out_targets_;   // m, sorted per source
  std::vector<EdgeId> in_offsets_;    // n+1
  std::vector<NodeId> in_sources_;    // m
  std::vector<EdgeId> in_edge_ids_;   // m, forward EdgeId of each in-arc
  uint64_t dropped_self_loops_ = 0;
  uint64_t dropped_duplicates_ = 0;
};

}  // namespace isa::graph

#endif  // ISA_GRAPH_GRAPH_H_
