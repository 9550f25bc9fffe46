#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/rng.h"
#include "common/strings.h"

namespace isa::graph {

namespace {

// Packs an arc into one 64-bit key for dedup sets.
inline uint64_t ArcKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

Result<Graph> GenerateErdosRenyi(const ErdosRenyiOptions& options) {
  const NodeId n = options.num_nodes;
  if (n < 2) return Status::InvalidArgument("ErdosRenyi: need >= 2 nodes");
  const uint64_t max_arcs = static_cast<uint64_t>(n) * (n - 1);
  if (options.num_edges > max_arcs) {
    return Status::InvalidArgument(
        StrFormat("ErdosRenyi: %llu edges exceeds n(n-1)=%llu",
                  (unsigned long long)options.num_edges,
                  (unsigned long long)max_arcs));
  }
  Rng rng(options.seed);
  std::unordered_set<uint64_t> seen;
  seen.reserve(options.num_edges * 2);
  std::vector<Edge> edges;
  edges.reserve(options.num_edges);
  while (edges.size() < options.num_edges) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    if (seen.insert(ArcKey(u, v)).second) edges.push_back(Edge{u, v});
  }
  return Graph::FromEdges(n, std::move(edges));
}

Result<Graph> GenerateBarabasiAlbert(const BarabasiAlbertOptions& options) {
  const NodeId n = options.num_nodes;
  const uint32_t k = options.edges_per_node;
  if (k == 0) return Status::InvalidArgument("BarabasiAlbert: k must be > 0");
  if (n < k + 1) {
    return Status::InvalidArgument("BarabasiAlbert: need n > edges_per_node");
  }
  Rng rng(options.seed);

  // `targets` holds one entry per degree unit; sampling uniformly from it is
  // preferential attachment. Seed clique of k+1 nodes.
  std::vector<NodeId> degree_pool;
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(n) * k * (options.bidirectional ? 2 : 1));
  for (NodeId u = 0; u <= k; ++u) {
    for (NodeId v = 0; v <= k; ++v) {
      if (u == v) continue;
      if (u < v) {
        edges.push_back(Edge{u, v});
        if (options.bidirectional) edges.push_back(Edge{v, u});
        degree_pool.push_back(u);
        degree_pool.push_back(v);
      }
    }
  }

  std::vector<NodeId> picked;
  picked.reserve(k);
  for (NodeId u = k + 1; u < n; ++u) {
    picked.clear();
    // Rejection-sample k distinct attachment targets.
    while (picked.size() < k) {
      NodeId t = degree_pool[rng.NextBounded(degree_pool.size())];
      if (std::find(picked.begin(), picked.end(), t) == picked.end()) {
        picked.push_back(t);
      }
    }
    for (NodeId t : picked) {
      edges.push_back(Edge{u, t});
      if (options.bidirectional) edges.push_back(Edge{t, u});
      degree_pool.push_back(u);
      degree_pool.push_back(t);
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

Result<Graph> GenerateRmat(const RmatOptions& options) {
  if (options.scale == 0 || options.scale > 31) {
    return Status::InvalidArgument("Rmat: scale must be in [1, 31]");
  }
  const double sum = options.a + options.b + options.c + options.d;
  if (std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("Rmat: a+b+c+d must be 1");
  }
  const NodeId n = static_cast<NodeId>(1u << options.scale);
  Rng rng(options.seed);
  const uint64_t attempts = static_cast<uint64_t>(
      static_cast<double>(options.num_edges) * options.oversample);
  std::vector<Edge> edges;
  edges.reserve(attempts);
  for (uint64_t i = 0; i < attempts; ++i) {
    NodeId u = 0, v = 0;
    for (uint32_t bit = 0; bit < options.scale; ++bit) {
      const double r = rng.NextDouble();
      u <<= 1;
      v <<= 1;
      if (r < options.a) {
        // top-left: no bits set
      } else if (r < options.a + options.b) {
        v |= 1;
      } else if (r < options.a + options.b + options.c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u != v) edges.push_back(Edge{u, v});
  }
  return Graph::FromEdges(n, std::move(edges));
}

Result<Graph> GeneratePowerLaw(const PowerLawOptions& options) {
  const NodeId n = options.num_nodes;
  if (n < 2) return Status::InvalidArgument("PowerLaw: need >= 2 nodes");
  if (options.exponent <= 1.0) {
    return Status::InvalidArgument("PowerLaw: exponent must be > 1");
  }
  Rng rng(options.seed);

  // Pareto-tailed degree targets: d ∝ U^{-1/(alpha-1)}, capped at a small
  // fraction of n (for alpha <= 2 the raw Pareto has infinite mean and a
  // single draw can otherwise swallow the whole edge budget), then scaled
  // to the requested edge total; independently for the in and out sides.
  const double hub_cap = std::max(4.0, 0.02 * static_cast<double>(n));
  auto sample_degrees = [&](uint64_t stream) {
    Rng local(HashSeed(options.seed, stream));
    std::vector<double> raw(n);
    double total = 0.0;
    const double inv = 1.0 / (options.exponent - 1.0);
    for (NodeId u = 0; u < n; ++u) {
      double x = std::min(hub_cap, std::pow(1.0 - local.NextDouble(), -inv));
      raw[u] = x;
      total += x;
    }
    std::vector<uint32_t> deg(n);
    // ~8% oversampling compensates the rounding loss and arcs later
    // collapsed as duplicates/self-loops by the CSR builder.
    const double scale =
        1.08 * static_cast<double>(options.num_edges) / total;
    for (NodeId u = 0; u < n; ++u) {
      deg[u] = static_cast<uint32_t>(raw[u] * scale + 0.5);
    }
    return deg;
  };
  std::vector<uint32_t> out_deg = sample_degrees(0x0eed);
  std::vector<uint32_t> in_deg = sample_degrees(0xf00d);

  // Build stubs; pad the shorter side with uniform random nodes so no stub
  // goes unmatched, then pair the shuffled arrays. Duplicate arcs and
  // self-loops are dropped by the CSR builder.
  std::vector<NodeId> out_stubs, in_stubs;
  for (NodeId u = 0; u < n; ++u) {
    for (uint32_t j = 0; j < out_deg[u]; ++j) out_stubs.push_back(u);
    for (uint32_t j = 0; j < in_deg[u]; ++j) in_stubs.push_back(u);
  }
  while (out_stubs.size() < in_stubs.size()) {
    out_stubs.push_back(static_cast<NodeId>(rng.NextBounded(n)));
  }
  while (in_stubs.size() < out_stubs.size()) {
    in_stubs.push_back(static_cast<NodeId>(rng.NextBounded(n)));
  }
  auto shuffle = [&](std::vector<NodeId>& xs) {
    for (size_t i = xs.size(); i > 1; --i) {
      std::swap(xs[i - 1], xs[rng.NextBounded(i)]);
    }
  };
  shuffle(out_stubs);
  shuffle(in_stubs);
  std::vector<Edge> edges;
  edges.reserve(out_stubs.size());
  for (size_t i = 0; i < out_stubs.size(); ++i) {
    edges.push_back(Edge{out_stubs[i], in_stubs[i]});
  }
  return Graph::FromEdges(n, std::move(edges));
}

}  // namespace isa::graph
