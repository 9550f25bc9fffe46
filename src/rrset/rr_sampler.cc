#include "rrset/rr_sampler.h"

#include "common/logging.h"

namespace isa::rrset {

std::shared_ptr<const CoinColumn> BuildCoinColumn(
    const graph::Graph& g, std::span<const double> probs, bool arc_codes) {
  auto coins = std::make_shared<CoinColumn>();
  auto& nodes = coins->nodes = std::vector<uint64_t>(g.num_nodes(), kCoinNever);
  bool any_mixed = false;
  // Per-node gather over the in-arc ids, leaving at the first mismatch.
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto eids = g.InEdgeIds(v);
    if (eids.empty()) continue;
    const double p0 = probs[eids[0]];
    uint64_t state = CoinState(p0);
    for (size_t k = 1; k < eids.size(); ++k) {
      const double p = probs[eids[k]];
      if (p != p0 && CoinState(p) != state) {
        state = kCoinMixed;
        break;
      }
    }
    any_mixed |= state == kCoinMixed;
    nodes[v] = UsesSkip(eids.size(), state) ? SkipCoin(state) : state;
  }
  if (!arc_codes || !any_mixed) return coins;
  coins->arc_codes.assign(g.num_edges(), kArcExact);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (nodes[v] != kCoinMixed) continue;
    uint8_t* codes = coins->arc_codes.data() + g.InArcBegin(v);
    for (const graph::EdgeId e : g.InEdgeIds(v)) *codes++ = ArcCode(probs[e]);
  }
  return coins;
}

RrSampler::RrSampler(const graph::Graph& g, std::span<const double> probs,
                     std::shared_ptr<const CoinColumn> coins)
    : g_(g), probs_(probs), coins_(std::move(coins)),
      visited_epoch_(g.num_nodes(), 0) {
  if (coins_ == nullptr) coins_ = BuildCoinColumn(g, probs);
  ISA_CHECK(coins_->nodes.size() == g.num_nodes());
  ISA_CHECK(coins_->arc_codes.empty() ||
            coins_->arc_codes.size() == g.num_edges());
  if (!coins_->arc_codes.empty()) arc_codes_ = coins_->arc_codes.data();
}

graph::NodeId RrSampler::SampleInto(Rng& rng,
                                    std::vector<graph::NodeId>* out) {
  out->clear();
  return AppendSet(rng, out);
}

graph::NodeId RrSampler::AppendSet(Rng& rng,
                                   std::vector<graph::NodeId>* out) {
  ++epoch_;
  const graph::NodeId root =
      static_cast<graph::NodeId>(rng.NextBounded(g_.num_nodes()));
  visited_epoch_[root] = epoch_;
  const size_t first = out->size();
  out->push_back(root);
  const uint64_t* coins = coins_->nodes.data();
  // Reverse BFS over live in-arcs, its queue the set's own members at the
  // tail of `out`.
  for (size_t head = first; head < out->size(); ++head) {
    const graph::NodeId v = (*out)[head];
    auto sources = g_.InNeighbors(v);
    auto eids = g_.InEdgeIds(v);
    // Flip each in-arc (u -> v) independently — with v's one coin when
    // its in-arcs agree, else with each arc's own probability — or, on a
    // skip node, jump from live arc to live arc.
    const uint64_t coin = coins[v];
    if (IsSkipCoin(coin)) {
      // The position is a double: a gap past the last arc ends the walk
      // however large it is, with no cast on the way.
      const double degree = static_cast<double>(sources.size());
      for (double k = SkipGap(coin, rng.Next()); k < degree;
           k += 1.0 + SkipGap(coin, rng.Next())) {
        const graph::NodeId u = sources[static_cast<size_t>(k)];
        if (visited_epoch_[u] == epoch_) continue;
        visited_epoch_[u] = epoch_;
        out->push_back(u);
      }
    } else if (coin == kCoinMixed) {
      // Each arc's code byte decides unless it ties the draw's top byte
      // or reads kArcExact, as every arc does without codes; only then
      // is probs_[eids[k]] gathered.
      const uint8_t* code =
          arc_codes_ == nullptr ? nullptr : arc_codes_ + g_.InArcBegin(v);
      for (size_t k = 0; k < sources.size(); ++k) {
        const graph::NodeId u = sources[k];
        if (visited_epoch_[u] == epoch_) continue;
        const uint8_t c = code == nullptr ? kArcExact : code[k];
        bool live;
        if (c == kArcExact) {
          live = rng.NextBernoulli(probs_[eids[k]]);
        } else {
          const uint64_t x = rng.Next();
          const uint64_t hi = x >> 56;
          live = hi < c ||
                 (hi == c && CoinAccepts(CoinState(probs_[eids[k]]), x));
        }
        if (live) {
          visited_epoch_[u] = epoch_;
          out->push_back(u);
        }
      }
    } else if (coin != kCoinNever) {
      for (const graph::NodeId u : sources) {
        if (visited_epoch_[u] == epoch_) continue;
        if (FlipCoin(coin, rng)) {
          visited_epoch_[u] = epoch_;
          out->push_back(u);
        }
      }
    }
  }
  return root;
}

void RrSampler::SampleIds(uint64_t base_seed, uint64_t first_id,
                          uint64_t count, std::vector<uint32_t>* sizes,
                          std::vector<graph::NodeId>* nodes) {
  sizes->clear();
  nodes->clear();
  sizes->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Rng rng(HashSeed(base_seed, first_id + i));
    const size_t before = nodes->size();
    AppendSet(rng, nodes);
    sizes->push_back(static_cast<uint32_t>(nodes->size() - before));
  }
}

}  // namespace isa::rrset
