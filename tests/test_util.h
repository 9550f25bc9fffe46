// Shared fixtures: gadget graphs and instances used across test suites.

#ifndef ISA_TESTS_TEST_UTIL_H_
#define ISA_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/problem.h"
#include "eval/datasets.h"
#include "graph/dataset_catalog.h"
#include "graph/graph.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_sampler.h"
#include "rrset/rr_store.h"
#include "topic/tic_model.h"
#include "topic/topic_distribution.h"

namespace isa::test {

/// Builds a graph or aborts (tests construct known-valid inputs).
inline graph::Graph MustGraph(graph::NodeId n,
                              std::vector<graph::Edge> edges) {
  auto g = graph::Graph::FromEdges(n, std::move(edges));
  ISA_CHECK(g.ok());
  return std::move(g).value();
}

/// `regime`'s arc weights on `g` (graph::MakeRegimeWeights, same
/// arguments), wrapped as per-topic probabilities.
inline Result<topic::TopicEdgeProbabilities> RegimeTopics(
    const graph::Graph& g, graph::WeightingRegime regime,
    uint32_t topic_mix_topics = 1, double uniform_p = 0.0, uint64_t seed = 0) {
  auto weights =
      graph::MakeRegimeWeights(g, regime, topic_mix_topics, uniform_p, seed);
  if (!weights.ok()) return weights.status();
  return topic::TopicEdgeProbabilities::Create(g, std::move(weights).value());
}

/// Catalog entry `name` at (scale, seed), wrapped for the eval layer.
inline Result<std::unique_ptr<eval::Dataset>> LoadDataset(
    std::string_view name, double scale, uint64_t seed) {
  graph::DatasetCatalog::Options opt;
  opt.scale = scale;
  opt.seed = seed;
  return eval::MakeDataset(graph::DatasetCatalog::Load(name, opt));
}

/// The pool a test's `threads`-worker sampler runs on: one ThreadPool of
/// that concurrency per size, shared by the binary's tests; null (inline)
/// for 0 or 1.
inline ThreadPool* SharedPool(uint32_t threads) {
  if (threads <= 1) return nullptr;
  static std::mutex mu;
  static std::map<uint32_t, std::unique_ptr<ThreadPool>> pools;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& pool = pools[threads];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
  return pool.get();
}

/// A one-worker IC ParallelSampler: the deterministic sampling path run
/// inline, set `i` drawn from Rng(HashSeed(seed, i)).
inline rrset::ParallelSampler InlineSampler(const graph::Graph& g,
                                            std::span<const double> probs,
                                            uint64_t seed) {
  rrset::ParallelSamplerOptions opts;
  opts.num_threads = 1;
  return rrset::ParallelSampler(
      g, probs, rrset::DiffusionModel::kIndependentCascade, seed, opts);
}

/// The index column SpillFile::AppendChunk takes for a chunk's members,
/// built by a per-set member scan: offsets over the node-id envelope, then
/// for each node the chunk-local indices of the sets that list it,
/// ascending, once each (empty when `nodes` is).
inline std::vector<uint32_t> BruteForceChunkIndex(
    std::span<const uint32_t> sizes, std::span<const graph::NodeId> nodes) {
  if (nodes.empty()) return {};
  const auto [lo, hi] = std::minmax_element(nodes.begin(), nodes.end());
  std::vector<std::vector<uint32_t>> lists(*hi - *lo + 1);
  uint64_t off = 0;
  for (uint32_t k = 0; k < sizes.size(); ++k) {
    for (uint64_t i = off; i < off + sizes[k]; ++i) {
      std::vector<uint32_t>& list = lists[nodes[i] - *lo];
      if (list.empty() || list.back() != k) list.push_back(k);
    }
    off += sizes[k];
  }
  std::vector<uint32_t> index{0};
  for (const auto& list : lists) {
    index.push_back(index.back() + static_cast<uint32_t>(list.size()));
  }
  for (const auto& list : lists) {
    index.insert(index.end(), list.begin(), list.end());
  }
  return index;
}

/// The honest re-sampler for an IC store filled by a ParallelSampler:
/// regenerates set `id` exactly as the sampler drew it — same per-set
/// substream Rng(HashSeed(seed, id)), same single-threaded RrSampler walk.
/// `g` must outlive the returned callable.
inline rrset::RrStore::ResampleFn IcResampler(const graph::Graph& g,
                                              std::vector<double> probs) {
  return [&g, probs = std::move(probs)](
             uint64_t seed, uint64_t lo, uint64_t hi,
             std::vector<uint32_t>* sizes,
             std::vector<graph::NodeId>* nodes) {
    rrset::RrSampler sampler(g, probs);
    sizes->clear();
    nodes->clear();
    std::vector<graph::NodeId> scratch;
    for (uint64_t id = lo; id < hi; ++id) {
      Rng rng(HashSeed(seed, id));
      sampler.SampleInto(rng, &scratch);
      sizes->push_back(static_cast<uint32_t>(scratch.size()));
      nodes->insert(nodes->end(), scratch.begin(), scratch.end());
    }
  };
}

/// A self-contained RM instance: owns graph, topic probabilities and the
/// RmInstance (which references the owned graph).
struct OwnedInstance {
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<topic::TopicEdgeProbabilities> topics;
  std::unique_ptr<core::RmInstance> instance;
};

/// Single-topic instance with uniform arc probability `p`.
inline OwnedInstance MakeInstance(graph::NodeId n,
                                  std::vector<graph::Edge> edges, double p,
                                  std::vector<core::AdvertiserSpec> ads,
                                  std::vector<std::vector<double>> incentives) {
  OwnedInstance owned;
  owned.graph =
      std::make_unique<graph::Graph>(MustGraph(n, std::move(edges)));
  auto topics =
      RegimeTopics(*owned.graph, graph::WeightingRegime::kUniformIc, 1, p);
  ISA_CHECK(topics.ok());
  owned.topics = std::make_unique<topic::TopicEdgeProbabilities>(
      std::move(topics).value());
  for (auto& ad : ads) ad.gamma = topic::TopicDistribution::Uniform(1);
  auto inst = core::RmInstance::Create(*owned.graph, *owned.topics,
                                       std::move(ads), std::move(incentives));
  ISA_CHECK(inst.ok());
  owned.instance =
      std::make_unique<core::RmInstance>(std::move(inst).value());
  return owned;
}

/// The Figure-1-style tightness gadget (paper, proof of Theorem 2).
///
/// One advertiser, cpe = 1, budget B = 7, all arc probabilities 1.
/// Nodes: b = 0, a = 1, c = 2, then leaves x,y (children of a), u,v
/// (children of c), w1,w2 (children of b). Incentives: c(b) = 4,
/// c(a) = c(c) = 0.5, leaves 2.5.
///
/// Facts (verified by tightness_test):
///   - OPT = {a, c} with revenue 6 and payment exactly 7;
///   - CA-GREEDY ties a/b/c on marginal revenue (3 each), chooses b
///     (smallest node id), is then stuck: revenue 3 = OPT/2, matching the
///     Theorem 2 bound with κ_π = 1, r = 1, R = 2;
///   - CS-GREEDY picks a then c: revenue 6 = OPT (paper footnote 9).
inline OwnedInstance MakeTightnessGadget() {
  const graph::NodeId kB = 0, kA = 1, kC = 2;
  const graph::NodeId kX = 3, kY = 4, kU = 5, kV = 6, kW1 = 7, kW2 = 8;
  std::vector<graph::Edge> edges = {
      {kA, kX}, {kA, kY}, {kC, kU}, {kC, kV}, {kB, kW1}, {kB, kW2}};
  core::AdvertiserSpec ad;
  ad.cpe = 1.0;
  ad.budget = 7.0;
  std::vector<double> incentives(9, 2.5);
  incentives[kB] = 4.0;
  incentives[kA] = 0.5;
  incentives[kC] = 0.5;
  return MakeInstance(9, std::move(edges), 1.0, {ad}, {incentives});
}

/// A 4-node diamond with heterogeneous probabilities, for estimator tests:
/// 0 -> 1 (0.5), 0 -> 2 (0.5), 1 -> 3 (0.5), 2 -> 3 (0.5).
inline graph::Graph MakeDiamond() {
  return MustGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

}  // namespace isa::test

#endif  // ISA_TESTS_TEST_UTIL_H_
