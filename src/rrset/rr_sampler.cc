#include "rrset/rr_sampler.h"

#include "common/logging.h"

namespace isa::rrset {

std::shared_ptr<const CoinColumn> BuildCoinColumn(
    const graph::Graph& g, std::span<const double> probs) {
  auto coins = std::make_shared<CoinColumn>(g.num_nodes(), kCoinNever);
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
    (*coins)[v] = UsesSkip(eids.size(), state) ? SkipCoin(state) : state;
  }
  return coins;
}

RrSampler::RrSampler(const graph::Graph& g, std::span<const double> probs,
                     DiffusionModel model,
                     std::shared_ptr<const CoinColumn> coins)
    : g_(g), probs_(probs), model_(model), coins_(std::move(coins)),
      visited_epoch_(g.num_nodes(), 0) {
  if (model_ != DiffusionModel::kIndependentCascade) return;
  if (coins_ == nullptr) coins_ = BuildCoinColumn(g, probs);
  ISA_CHECK(coins_->size() == g.num_nodes());
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
  const uint64_t* coins = coins_ != nullptr ? coins_->data() : nullptr;
  // Reverse BFS over live in-arcs, its queue the set's own members at the
  // tail of `out`; the two models differ only in how a reached node's
  // in-arcs are declared live.
  for (size_t head = first; head < out->size(); ++head) {
    const graph::NodeId v = (*out)[head];
    auto sources = g_.InNeighbors(v);
    auto eids = g_.InEdgeIds(v);
    if (model_ == DiffusionModel::kIndependentCascade) {
      // IC: flip each in-arc (u -> v) independently — with v's one coin
      // when its in-arcs agree, else with each arc's own probability — or,
      // on a skip node, jump from live arc to live arc.
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
        for (size_t k = 0; k < sources.size(); ++k) {
          const graph::NodeId u = sources[k];
          if (visited_epoch_[u] == epoch_) continue;
          if (rng.NextBernoulli(probs_[eids[k]])) {
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
    } else {
      // LT: v selects at most one in-arc; arc k with probability
      // probs_[eids[k]], none with the residual mass.
      if (sources.empty()) continue;
      const double r = rng.NextDouble();
      double acc = 0.0;
      for (size_t k = 0; k < sources.size(); ++k) {
        acc += probs_[eids[k]];
        if (r < acc) {
          const graph::NodeId u = sources[k];
          if (visited_epoch_[u] != epoch_) {
            visited_epoch_[u] = epoch_;
            out->push_back(u);
          }
          break;
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
