#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "diffusion/exact.h"
#include "graph/generators.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "rrset/sample_sizer.h"
#include "rrset/singleton_estimator.h"
#include "tests/test_util.h"

namespace isa::rrset {
namespace {

TEST(RrSamplerTest, DeterministicChainContainsAllAncestors) {
  // 0 -> 1 -> 2 with p = 1: the RR set of root r is {0..r}.
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  Rng rng(5);
  std::vector<graph::NodeId> rr;
  for (int i = 0; i < 50; ++i) {
    graph::NodeId root = sampler.SampleInto(rng, &rr);
    std::sort(rr.begin(), rr.end());
    ASSERT_EQ(rr.size(), root + 1u);
    for (graph::NodeId v = 0; v <= root; ++v) EXPECT_EQ(rr[v], v);
  }
}

TEST(RrSamplerTest, ZeroProbabilityGivesSingletons) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.0);
  RrSampler sampler(g, probs);
  Rng rng(6);
  std::vector<graph::NodeId> rr;
  for (int i = 0; i < 50; ++i) {
    sampler.SampleInto(rng, &rr);
    EXPECT_EQ(rr.size(), 1u);
  }
}

// ---------- Coin column ----------

// The probabilities the exactness argument has to survive: both zeros,
// the smallest subnormal, the smallest and a non-integer scaled threshold,
// the largest double below 1, and values at or above 1.
std::vector<double> EdgeProbabilities() {
  return {0.0,     -0.0,   std::numeric_limits<double>::denorm_min(),
          0x1p-53, 0x3p-54, 0.5, std::nextafter(1.0, 0.0), 1.0, 1.5};
}

TEST(CoinStateTest, ThresholdDecidesExactlyAsNextDouble) {
  std::vector<double> ps = EdgeProbabilities();
  Rng prng(41);
  for (int i = 0; i < 100'000; ++i) {
    // Half uniform on [0, 1), half log-uniform down to 2^-60, so small
    // thresholds with fractional scaled values are well covered.
    const double u = prng.NextDouble();
    ps.push_back(i % 2 == 0
                     ? u
                     : std::ldexp(0.5 + u / 2, -prng.NextInRange(1, 60)));
  }
  Rng xrng(42);
  for (const double p : ps) {
    const uint64_t state = CoinState(p);
    if (p <= 0.0) {
      ASSERT_EQ(state, kCoinNever) << p;
      continue;
    }
    if (p >= 1.0) {
      ASSERT_EQ(state, kCoinAlways) << p;
      continue;
    }
    ASSERT_LT(state, kCoinAlways) << p;
    // Random draws, plus the draws k = t - 1 and k = t on either side of
    // the threshold, where an off-by-one would show.
    std::vector<uint64_t> xs = {xrng.Next(), xrng.Next(), xrng.Next()};
    if (state > 0) xs.push_back(((state - 1) << 11) | (xrng.Next() >> 53));
    xs.push_back((state << 11) | (xrng.Next() >> 53));
    for (const uint64_t x : xs) {
      ASSERT_EQ(CoinAccepts(state, x),
                static_cast<double>(x >> 11) * 0x1p-53 < p)
          << std::hexfloat << p << " x=" << x;
    }
  }
}

TEST(CoinStateTest, FlipCoinConsumesDrawsLikeNextBernoulli) {
  std::vector<double> ps = EdgeProbabilities();
  ps.push_back(std::numeric_limits<double>::quiet_NaN());
  Rng prng(43);
  for (int i = 0; i < 1000; ++i) ps.push_back(prng.NextDouble());
  for (size_t i = 0; i < ps.size(); ++i) {
    const double p = ps[i];
    Rng coin(HashSeed(44, i));
    Rng reference(HashSeed(44, i));
    const uint64_t state = CoinState(p);
    for (int t = 0; t < 16; ++t) {
      ASSERT_EQ(FlipCoin(state, coin), reference.NextBernoulli(p)) << p;
    }
    // Same number of draws: the streams are still in step.
    ASSERT_EQ(coin.Next(), reference.Next()) << p;
  }
}

TEST(CoinStateTest, NanDrawsOnceAndNeverSucceeds) {
  // NextBernoulli(NaN) consumes a draw and returns false; the coin maps
  // NaN to threshold 0, which does the same.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(CoinState(nan), 0u);
  Rng coin(45), reference(45);
  EXPECT_FALSE(FlipCoin(CoinState(nan), coin));
  EXPECT_FALSE(reference.NextBernoulli(nan));
  EXPECT_EQ(coin.Next(), reference.Next());
}

TEST(CoinColumnTest, NodeIsUniformWhenItsArcsShareAThreshold) {
  // In-arcs of: 0 none; 1 one arc; 2 {0.1, next double above 0.1} (unequal
  // doubles, one threshold); 3 {0.25, 0.5}; 4 {1, 1.5}; 5 {0, -0}.
  auto g = test::MustGraph(
      6, {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {0, 4}, {1, 4}, {0, 5},
          {1, 5}});
  std::vector<double> probs(g.num_edges());
  auto set = [&](graph::NodeId v, std::vector<double> ps) {
    auto eids = g.InEdgeIds(v);
    ASSERT_EQ(eids.size(), ps.size());
    for (size_t k = 0; k < ps.size(); ++k) probs[eids[k]] = ps[k];
  };
  set(1, {0.3});
  set(2, {0.1, std::nextafter(0.1, 1.0)});
  set(3, {0.25, 0.5});
  set(4, {1.0, 1.5});
  set(5, {0.0, -0.0});
  const auto coins = BuildCoinColumn(g, probs);
  ASSERT_EQ(coins->nodes.size(), 6u);
  EXPECT_EQ(coins->nodes[0], kCoinNever);
  EXPECT_EQ(coins->nodes[1], CoinState(0.3));
  EXPECT_EQ(coins->nodes[2], CoinState(0.1));
  EXPECT_EQ(coins->nodes[3], kCoinMixed);
  EXPECT_EQ(coins->nodes[4], kCoinAlways);
  EXPECT_EQ(coins->nodes[5], kCoinNever);
  EXPECT_TRUE(coins->arc_codes.empty());
}

// The documented walk, written out as the reference: a node whose in-arcs
// all map to one threshold t in (0, 2^53) and that passes the cutover
// (UsesSkip) jumps over floor(log(u) * (1 / log1p(-t * 2^-53))) arcs per
// draw, u = ((x >> 11) + 1) * 2^-53; every other in-arc flips
// Rng::NextBernoulli(probs[eid]).
void ReferenceSampleIds(const graph::Graph& g, std::span<const double> probs,
                        uint64_t seed, uint64_t count,
                        std::vector<uint32_t>* sizes,
                        std::vector<graph::NodeId>* nodes) {
  std::vector<uint8_t> seen(g.num_nodes(), 0);
  std::vector<graph::NodeId> rr;
  for (uint64_t id = 0; id < count; ++id) {
    Rng rng(HashSeed(seed, id));
    rr.assign(1, static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes())));
    seen[rr[0]] = 1;
    for (size_t head = 0; head < rr.size(); ++head) {
      auto sources = g.InNeighbors(rr[head]);
      auto eids = g.InEdgeIds(rr[head]);
      const uint64_t t = eids.empty() ? 0 : CoinState(probs[eids[0]]);
      bool skip = UsesSkip(eids.size(), t);
      for (const graph::EdgeId e : eids) {
        skip = skip && CoinState(probs[e]) == t;
      }
      if (skip) {
        const double log1m = std::log1p(-static_cast<double>(t) * 0x1p-53);
        auto gap = [&] {
          const double u =
              static_cast<double>((rng.Next() >> 11) + 1) * 0x1p-53;
          return std::floor(std::log(u) * (1.0 / log1m));
        };
        for (double k = gap(); k < sources.size(); k += 1.0 + gap()) {
          const graph::NodeId u = sources[static_cast<size_t>(k)];
          if (!seen[u]) {
            seen[u] = 1;
            rr.push_back(u);
          }
        }
        continue;
      }
      for (size_t k = 0; k < sources.size(); ++k) {
        if (seen[sources[k]]) continue;
        if (rng.NextBernoulli(probs[eids[k]])) {
          seen[sources[k]] = 1;
          rr.push_back(sources[k]);
        }
      }
    }
    for (graph::NodeId v : rr) seen[v] = 0;
    sizes->push_back(static_cast<uint32_t>(rr.size()));
    nodes->insert(nodes->end(), rr.begin(), rr.end());
  }
}

TEST(CoinColumnTest, SampleIdsMatchesPerArcReferenceSetForSet) {
  // Random digraph whose nodes mix every coin state: in-degree 0 and 1,
  // uniform 1/indeg (weighted cascade; a skip coin from in-degree 8),
  // uniform 0 and 1, and mixed arcs drawn from {0, 1, random}.
  for (uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng(HashSeed(46, trial));
    const graph::NodeId n = 400;
    std::vector<graph::Edge> edges;
    for (graph::NodeId v = 0; v < n; ++v) {
      const uint64_t indeg = v % 7 == 0   ? 0
                             : v % 7 == 1 ? 1
                                          : rng.NextBounded(12);
      for (uint64_t k = 0; k < indeg; ++k) {
        edges.push_back({static_cast<graph::NodeId>(rng.NextBounded(n)), v});
      }
    }
    auto g = test::MustGraph(n, std::move(edges));
    std::vector<double> probs(g.num_edges());
    size_t regimes[5] = {0, 0, 0, 0, 0};
    for (graph::NodeId v = 0; v < n; ++v) {
      auto eids = g.InEdgeIds(v);
      const uint64_t regime = rng.NextBounded(4);
      // regime 3 (-1) draws each arc from {0, 1, random}: mixed.
      const double uniform =
          regime == 0   ? 1.0 / std::max<size_t>(1, eids.size())
          : regime == 1 ? 0.0
          : regime == 2 ? 1.0
                        : -1.0;
      for (const graph::EdgeId e : eids) {
        const uint64_t pick = rng.NextBounded(4);
        probs[e] = uniform >= 0.0 ? uniform
                   : pick == 0    ? 0.0
                   : pick == 1    ? 1.0
                                  : rng.NextDouble() * 0.6;
      }
    }
    const auto coins = BuildCoinColumn(g, probs);
    for (const uint64_t state : coins->nodes) {
      ++regimes[state == kCoinMixed    ? 0
                : state == kCoinNever  ? 1
                : state == kCoinAlways ? 2
                : IsSkipCoin(state)    ? 3
                                       : 4];
    }
    for (size_t r : regimes) ASSERT_GT(r, 0u) << "trial " << trial;

    std::vector<uint32_t> want_sizes, got_sizes;
    std::vector<graph::NodeId> want_nodes, got_nodes;
    const uint64_t seed = HashSeed(47, trial);
    ReferenceSampleIds(g, probs, seed, 3000, &want_sizes, &want_nodes);
    RrSampler sampler(g, probs);
    sampler.SampleIds(seed, 0, 3000, &got_sizes, &got_nodes);
    ASSERT_EQ(got_sizes, want_sizes) << "trial " << trial;
    ASSERT_EQ(got_nodes, want_nodes) << "trial " << trial;
    // Multi-member sets, so the walk went past the root.
    ASSERT_GT(want_nodes.size(), 2 * want_sizes.size());

    // The parallel sampler's workers share one column: same sets.
    ParallelSamplerOptions po;
    po.num_threads = 3;
    po.min_sets_per_thread = 100;
    po.pool = test::SharedPool(3);
    ParallelSampler parallel(g, probs, DiffusionModel::kIndependentCascade,
                             seed, po);
    parallel.SampleToBuffer(0, 3000, &got_nodes, &got_sizes);
    ASSERT_EQ(got_sizes, want_sizes) << "trial " << trial;
    ASSERT_EQ(got_nodes, want_nodes) << "trial " << trial;
  }
}

TEST(CoinColumnTest, ArcCodeIsTheThresholdTopByte) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Below 1/2 an ulp is under 2^-53, so one ulp down keeps the threshold
  // k * 2^45; from 1/2 up it is the threshold's last unit.
  for (int k = 1; k < 255; ++k) {
    const double p = k / 256.0;
    EXPECT_EQ(ArcCode(p), k);
    EXPECT_EQ(ArcCode(std::nextafter(p, 0.0)), p > 0.5 ? k - 1 : k);
    EXPECT_EQ(ArcCode(std::nextafter(p, 1.0)), k);
  }
  EXPECT_EQ(ArcCode(255 / 256.0), kArcExact);
  EXPECT_EQ(ArcCode(std::nextafter(255 / 256.0, 0.0)), 254);
  EXPECT_EQ(ArcCode(std::nextafter(1.0, 0.0)), kArcExact);
  EXPECT_EQ(ArcCode(0x1p-9), 0);
  EXPECT_EQ(ArcCode(nan), 0);
  for (const double p : {0.0, -0.0, -1.0, 1.0, 2.0}) {
    EXPECT_EQ(ArcCode(p), kArcExact) << p;
  }
}

// A store's column (arc codes on its mixed nodes) samples the same sets as
// node coins alone, whose mixed nodes flip NextBernoulli(probs[eid]), at 1
// and 4 workers. The mixed arcs draw from the code's edge cases: p = 0, 1
// and NaN, k/256 and one ulp either side (the tie's boundaries), above
// 255/256 (the kArcExact escape) and below 2^-8 (code 0, every live flip a
// tie). Zero, NaN and tiny p weigh most, so the sets stay small.
TEST(CoinColumnTest, ArcCodesSampleTheSameSetsAsNodeCoins) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(51);
  const graph::NodeId n = 300;
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 0; v < n; ++v) {
    const uint64_t indeg = 2 + rng.NextBounded(4);
    for (uint64_t k = 0; k < indeg; ++k) {
      edges.push_back({static_cast<graph::NodeId>(rng.NextBounded(n)), v});
    }
  }
  auto g = test::MustGraph(n, std::move(edges));
  std::vector<double> probs(g.num_edges());
  for (double& p : probs) {
    const double k = static_cast<double>(1 + rng.NextBounded(254)) / 256.0;
    switch (rng.NextBounded(16)) {
      case 0: case 1: case 2: p = 0.0; break;
      case 3: p = 1.0; break;
      case 4: case 5: p = nan; break;
      case 6: p = k; break;
      case 7: p = std::nextafter(k, 0.0); break;
      case 8: p = std::nextafter(k, 1.0); break;
      case 9: p = 1.0 - rng.NextDouble() * 0x1p-8; break;
      case 10: case 11: case 12: case 13:
        p = rng.NextDouble() * 0x1p-8;
        break;
      default: p = rng.NextDouble() * 0.3; break;
    }
  }
  SampleSizerOptions so;
  so.run_kpt_pilot = false;
  const auto store_coins = SampleSizer(g, probs, so).coins();
  const auto node_coins = BuildCoinColumn(g, probs);
  ASSERT_EQ(store_coins->nodes, node_coins->nodes);
  ASSERT_TRUE(node_coins->arc_codes.empty());
  ASSERT_EQ(store_coins->arc_codes.size(), g.num_edges());
  // Most nodes are mixed; their arcs take both the escape and a code.
  uint64_t mixed = 0, escapes = 0, coded = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (store_coins->nodes[v] != kCoinMixed) continue;
    ++mixed;
    auto eids = g.InEdgeIds(v);
    for (size_t k = 0; k < eids.size(); ++k) {
      const uint8_t code = store_coins->arc_codes[g.InArcBegin(v) + k];
      ASSERT_EQ(code, ArcCode(probs[eids[k]]));
      ++(code == kArcExact ? escapes : coded);
    }
  }
  ASSERT_GT(mixed, n * 9 / 10);
  ASSERT_GT(escapes, coded / 4);
  ASSERT_GT(coded, escapes / 2);

  constexpr uint64_t kSets = 100'000;
  const uint64_t seed = 52;
  std::vector<uint32_t> want_sizes, got_sizes;
  std::vector<graph::NodeId> want_nodes, got_nodes;
  RrSampler(g, probs, node_coins)
      .SampleIds(seed, 0, kSets, &want_sizes, &want_nodes);
  // Multi-member sets, so the walk flipped many mixed arcs.
  ASSERT_GT(want_nodes.size(), 3 * want_sizes.size());
  for (const uint32_t workers : {1u, 4u}) {
    ParallelSamplerOptions po;
    po.num_threads = workers;
    po.pool = test::SharedPool(workers);
    ParallelSampler sampler(g, probs, DiffusionModel::kIndependentCascade,
                            seed, po, store_coins);
    sampler.SampleToBuffer(0, kSets, &got_nodes, &got_sizes);
    ASSERT_EQ(got_sizes, want_sizes) << workers << " workers";
    ASSERT_EQ(got_nodes, want_nodes) << workers << " workers";
  }
}

TEST(CoinColumnTest, GraphWithoutMixedNodesBuildsNoArcCodes) {
  // Weighted cascade: every in-arc of v lives with 1 / in-degree(v).
  auto ba = graph::GenerateBarabasiAlbert(
      {.num_nodes = 500, .edges_per_node = 3, .seed = 4});
  ASSERT_TRUE(ba.ok());
  const graph::Graph& g = ba.value();
  std::vector<double> probs(g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const graph::EdgeId e : g.InEdgeIds(v)) {
      probs[e] = 1.0 / g.InDegree(v);
    }
  }
  SampleSizerOptions so;
  so.run_kpt_pilot = false;
  const auto coins = SampleSizer(g, probs, so).coins();
  EXPECT_EQ(std::count(coins->nodes.begin(), coins->nodes.end(), kCoinMixed),
            0);
  EXPECT_TRUE(coins->arc_codes.empty());
}

// ---------- Geometric skip ----------

// Hub 0 with in-arcs from leaves 1..d at probability p, and an arc back
// from the hub to every leaf at probability 1: every RR set reaches the
// hub (as the root, or through the root leaf's one live in-arc), so each
// leaf other than the root joins independently with probability p.
graph::Graph HubGraph(graph::NodeId d) {
  std::vector<graph::Edge> edges;
  for (graph::NodeId leaf = 1; leaf <= d; ++leaf) {
    edges.push_back({leaf, 0});
    edges.push_back({0, leaf});
  }
  return test::MustGraph(d + 1, std::move(edges));
}

std::vector<double> HubProbs(const graph::Graph& g, double p) {
  std::vector<double> probs(g.num_edges(), 1.0);
  for (const graph::EdgeId e : g.InEdgeIds(0)) probs[e] = p;
  return probs;
}

// The column with the hub on its skip coin, whatever the cutover says.
std::shared_ptr<const CoinColumn> SkipHubColumn(const graph::Graph& g,
                                                std::span<const double> probs) {
  auto coins = std::make_shared<CoinColumn>(*BuildCoinColumn(g, probs));
  coins->nodes[0] = SkipCoin(CoinState(probs[g.InEdgeIds(0)[0]]));
  return coins;
}

TEST(SkipWalkTest, InclusionMatchesPerArcWalk) {
  // Per leaf i, both walks count the sets that include i without it being
  // the root, out of the R_i sets whose root is not i. The walks draw each
  // set's root from the same first draw, so R_i is shared and each count
  // is Binomial(R_i, p); their difference must stay within kZ standard
  // deviations, sqrt(2 R_i p (1 - p)), plus 1. The totals must each stay
  // within kZ standard deviations of their exact mean sum_i R_i p.
  constexpr uint64_t kSets = 20'000;
  constexpr double kZ = 6.0;
  for (const graph::NodeId d : {8u, 100u, 1000u}) {
    const auto g = HubGraph(d);
    for (const double p : {1.0 / d, 0.01, 0.3, 0.9}) {
      SCOPED_TRACE(testing::Message() << "d=" << d << " p=" << p);
      const auto probs = HubProbs(g, p);
      // The cutover decides the real column; the test forces the skip.
      const uint64_t t = CoinState(p);
      EXPECT_EQ(BuildCoinColumn(g, probs)->nodes[0],
                UsesSkip(d, t) ? SkipCoin(t) : t);
      if (p == 1.0 / d || p == 0.01) {
        EXPECT_TRUE(UsesSkip(d, t));
      }
      RrSampler skip(g, probs, SkipHubColumn(g, probs));
      RrSampler per_arc(g, probs,
                        std::make_shared<const CoinColumn>(CoinColumn{
                            std::vector<uint64_t>(g.num_nodes(), kCoinMixed),
                            {}}));
      std::vector<double> c_skip(d + 1, 0.0), c_arc(d + 1, 0.0);
      std::vector<double> not_root(d + 1, kSets);
      std::vector<graph::NodeId> rr;
      for (uint64_t id = 0; id < kSets; ++id) {
        Rng a(HashSeed(48, id)), b(HashSeed(48, id));
        const graph::NodeId root = skip.SampleInto(a, &rr);
        --not_root[root];
        for (const graph::NodeId v : rr) c_skip[v] += v != root;
        ASSERT_EQ(per_arc.SampleInto(b, &rr), root);
        for (const graph::NodeId v : rr) c_arc[v] += v != root;
      }
      double total_skip = 0.0, total_arc = 0.0, mean = 0.0, var = 0.0;
      for (graph::NodeId leaf = 1; leaf <= d; ++leaf) {
        const double leaf_var = not_root[leaf] * p * (1.0 - p);
        ASSERT_LE(std::abs(c_skip[leaf] - c_arc[leaf]),
                  kZ * std::sqrt(2.0 * leaf_var) + 1.0)
            << "leaf " << leaf;
        total_skip += c_skip[leaf];
        total_arc += c_arc[leaf];
        mean += not_root[leaf] * p;
        var += leaf_var;
      }
      EXPECT_LE(std::abs(total_skip - mean), kZ * std::sqrt(var) + 1.0);
      EXPECT_LE(std::abs(total_arc - mean), kZ * std::sqrt(var) + 1.0);
    }
  }
}

TEST(SkipWalkTest, GapAtTheEdges) {
  const uint64_t thresholds[] = {1,
                                 2,
                                 3,
                                 CoinState(0.01),
                                 CoinState(0.5),
                                 uint64_t{1} << 52,
                                 kCoinAlways - 1};
  Rng rng(49);
  for (const uint64_t t : thresholds) {
    const uint64_t coin = SkipCoin(t);
    ASSERT_TRUE(IsSkipCoin(coin)) << t;
    // x >> 11 = 2^53 - 1 gives u = 1 and log(u) = 0: the next arc is live.
    EXPECT_EQ(SkipGap(coin, ~uint64_t{0}), 0.0) << t;
    for (int i = 0; i < 1000; ++i) {
      const double gap = SkipGap(coin, rng.Next());
      ASSERT_GE(gap, 0.0) << t;
      ASSERT_EQ(gap, std::floor(gap)) << t;
    }
  }
  // t = 1 (p = 2^-53): the smallest u gives a gap near 2^53 * 36.7 —
  // finite and far past any in-degree; the walk compares it as a double.
  const double huge = SkipGap(SkipCoin(1), 0);
  EXPECT_TRUE(std::isfinite(huge));
  EXPECT_GT(huge, 3e17);
  // p = 1 - 2^-53: every draw but x >> 11 = 0 lands on the next arc.
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = rng.Next() | (uint64_t{1} << 11);
    ASSERT_EQ(SkipGap(SkipCoin(kCoinAlways - 1), x), 0.0) << x;
  }
  // Thresholds and sentinels are not skip coins.
  for (const uint64_t state :
       {uint64_t{0}, uint64_t{1}, kCoinAlways - 1, kCoinAlways, kCoinNever,
        kCoinMixed}) {
    EXPECT_FALSE(IsSkipCoin(state)) << state;
  }
}

TEST(SkipWalkTest, WalkAtTheEdgeProbabilities) {
  const graph::NodeId d = 1000;
  const auto g = HubGraph(d);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    double p;
    bool force_skip;
    bool all_leaves;  // else no leaf joins but the root
  };
  // t = 1: a leaf joins with probability 2^-53. p = 1 - 2^-53: a leaf
  // misses with probability 2^-53. NaN: threshold 0, which the column
  // never turns into a skip coin; it draws and never succeeds.
  for (const Case c : {Case{0x1p-53, true, false},
                       Case{std::nextafter(1.0, 0.0), true, true},
                       Case{nan, false, false}}) {
    SCOPED_TRACE(testing::Message() << std::hexfloat << c.p);
    const auto probs = HubProbs(g, c.p);
    auto coins = BuildCoinColumn(g, probs);
    if (c.force_skip) {
      coins = SkipHubColumn(g, probs);
    } else {
      EXPECT_EQ(coins->nodes[0], 0u);
    }
    RrSampler sampler(g, probs, coins);
    Rng rng(50);
    std::vector<graph::NodeId> rr;
    for (int i = 0; i < 200; ++i) {
      const graph::NodeId root = sampler.SampleInto(rng, &rr);
      const size_t without_leaves = root == 0 ? 1 : 2;
      ASSERT_EQ(rr.size(), c.all_leaves ? d + 1 : without_leaves);
    }
  }
}

TEST(SkipWalkTest, WeightedCascadeCutoverAtTwiceTheDrawCost) {
  // Under weighted cascade (p = 1/d) the cost rule reduces to an in-degree
  // cutover, as rr_sampler.h documents.
  for (uint64_t d = 1; d <= 64; ++d) {
    EXPECT_EQ(UsesSkip(d, CoinState(1.0 / d)), d >= 2 * kSkipDrawCost) << d;
  }
}

// The unbiasedness property the whole approach rests on:
// n * E[fraction of RR sets covered by S] = sigma(S).
TEST(RrEstimatorTest, CoverageEstimatesSpread) {
  auto g = test::MakeDiamond();
  std::vector<double> probs = {0.4, 0.6, 0.5, 0.3};
  const graph::NodeId seeds[1] = {0};
  const double exact = diffusion::ExactSpread(g, probs, seeds).value();

  RrSampler sampler(g, probs);
  Rng rng(8);
  std::vector<graph::NodeId> rr;
  const int theta = 200'000;
  int covered = 0;
  for (int i = 0; i < theta; ++i) {
    sampler.SampleInto(rng, &rr);
    covered += std::find(rr.begin(), rr.end(), 0u) != rr.end();
  }
  const double estimate = 4.0 * covered / theta;
  EXPECT_NEAR(estimate, exact, 0.02);
}

TEST(RrEstimatorTest, MultiSeedCoverageEstimatesSpread) {
  auto g = test::MustGraph(5, {{0, 1}, {1, 2}, {3, 2}, {3, 4}});
  std::vector<double> probs = {0.5, 0.5, 0.5, 0.5};
  const graph::NodeId seeds[2] = {0, 3};
  const double exact = diffusion::ExactSpread(g, probs, seeds).value();

  RrSampler sampler(g, probs);
  Rng rng(9);
  std::vector<graph::NodeId> rr;
  const int theta = 200'000;
  int covered = 0;
  for (int i = 0; i < theta; ++i) {
    sampler.SampleInto(rng, &rr);
    covered += std::find(rr.begin(), rr.end(), 0u) != rr.end() ||
               std::find(rr.begin(), rr.end(), 3u) != rr.end();
  }
  EXPECT_NEAR(5.0 * covered / theta, exact, 0.02);
}

// ---------- RrCollection ----------

TEST(RrCollectionTest, AddAndCoverageCounts) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 10);
  RrCollection col(3);
  col.AddSets(sampler, 300, {});
  EXPECT_EQ(col.total_sets(), 300u);
  EXPECT_EQ(col.covered_sets(), 0u);
  // With p = 1, node 0 is in every RR set.
  EXPECT_EQ(col.CoverageOf(0), 300u);
  // Node 2 only appears when the root is 2 (~1/3 of sets).
  EXPECT_GT(col.CoverageOf(2), 60u);
  EXPECT_LT(col.CoverageOf(2), 140u);
}

TEST(RrCollectionTest, RemoveCoveredByZeroesOutNode) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 11);
  RrCollection col(3);
  col.AddSets(sampler, 200, {});
  const uint32_t removed = col.RemoveCoveredBy(0);
  EXPECT_EQ(removed, 200u);  // node 0 covered everything
  EXPECT_EQ(col.covered_sets(), 200u);
  EXPECT_DOUBLE_EQ(col.covered_fraction(), 1.0);
  EXPECT_EQ(col.CoverageOf(1), 0u);
  EXPECT_EQ(col.CoverageOf(2), 0u);
  // Second removal is a no-op.
  EXPECT_EQ(col.RemoveCoveredBy(1), 0u);
}

TEST(RrCollectionTest, MarginalCoverageAfterRemoval) {
  // Star into 0: 1 -> 0, 2 -> 0 (p = 1). RR(root=0) = {0,1,2};
  // RR(root=1) = {1}; RR(root=2) = {2}.
  auto g = test::MustGraph(3, {{1, 0}, {2, 0}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 12);
  RrCollection col(3);
  col.AddSets(sampler, 3000, {});
  const uint32_t cov1_before = col.CoverageOf(1);
  col.RemoveCoveredBy(0);  // removes all root-0 sets
  const uint32_t cov1_after = col.CoverageOf(1);
  // Node 1's marginal coverage is now only its own root-1 singletons.
  EXPECT_LT(cov1_after, cov1_before);
  EXPECT_GT(cov1_after, 0u);
}

TEST(RrCollectionTest, ArgmaxCoverageRespectsEligibility) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 13);
  RrCollection col(3);
  col.AddSets(sampler, 100, {});
  std::vector<uint8_t> eligible = {1, 1, 1};
  EXPECT_EQ(col.ArgmaxCoverage(eligible), 0u);
  eligible[0] = 0;
  EXPECT_EQ(col.ArgmaxCoverage(eligible), 1u);
  eligible[1] = 0;
  EXPECT_EQ(col.ArgmaxCoverage(eligible), 2u);
  eligible[2] = 0;
  EXPECT_EQ(col.ArgmaxCoverage(eligible), RrCollection::kInvalidNode);
}

TEST(RrCollectionTest, AddSetsWithSeedsMarksCovered) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 15);
  RrCollection col(3);
  col.AddSets(sampler, 100, {});
  col.RemoveCoveredBy(0);
  EXPECT_DOUBLE_EQ(col.covered_fraction(), 1.0);
  // Grow the sample while seed {0} is active: new sets containing 0 are
  // covered immediately (Algorithm 3) — with p=1 that is all of them.
  const graph::NodeId seeds[1] = {0};
  col.AddSets(sampler, 100, seeds);
  EXPECT_EQ(col.total_sets(), 200u);
  EXPECT_DOUBLE_EQ(col.covered_fraction(), 1.0);
}

TEST(RrCollectionTest, MaxCoverageFractionAndMeanSize) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 16);
  RrCollection col(3);
  EXPECT_DOUBLE_EQ(col.MaxCoverageFraction(), 0.0);
  col.AddSets(sampler, 100, {});
  EXPECT_DOUBLE_EQ(col.MaxCoverageFraction(), 1.0);  // node 0 in all
  EXPECT_GE(col.MeanSetSize(), 1.0);
  EXPECT_LE(col.MeanSetSize(), 3.0);
  EXPECT_GT(col.MemoryBytes(), 0u);
}

// ---------- RrStore inverted index (one exact-fit CSR) ----------

// Brute-force reference: sets containing v, by scanning every set.
std::vector<uint32_t> BruteForceSetsContaining(const RrStore& store,
                                               graph::NodeId v) {
  std::vector<uint32_t> out;
  for (uint64_t r = 0; r < store.num_sets(); ++r) {
    const auto members = store.SetMembers(r);
    if (std::find(members.begin(), members.end(), v) != members.end()) {
      out.push_back(static_cast<uint32_t>(r));
    }
  }
  return out;
}

void ExpectIndexMatchesBruteForce(const RrStore& store) {
  for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
    const auto expected = BruteForceSetsContaining(store, v);
    const auto actual = store.SetsContaining(v);
    ASSERT_EQ(actual, expected) << "node " << v;
    ASSERT_TRUE(std::is_sorted(actual.begin(), actual.end())) << "node " << v;
  }
}

// The exact-fit CSR's bytes: node offsets plus one id per posting.
uint64_t ExactFitIndexBytes(const RrStore& store) {
  return (uint64_t{store.num_nodes()} + 1) * sizeof(uint64_t) +
         store.PostingsInRange(0, store.num_sets()) * sizeof(uint32_t);
}

TEST(RrStoreIndexTest, IndexStaysOneExactFitCsrAcrossGrowth) {
  auto g = test::MustGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  std::vector<double> probs(g.num_edges(), 0.7);
  auto sampler = test::InlineSampler(g, probs, 31);
  RrStore store(6);
  // A big batch, then a trickle of tiny batches, then another big batch:
  // the growth pattern RunTiGreedy's θ revisions produce. Every append
  // leaves one exact-fit CSR.
  sampler.SampleAppend(store, 300);
  ExpectIndexMatchesBruteForce(store);
  EXPECT_EQ(store.IndexBytes(), ExactFitIndexBytes(store));
  for (int i = 0; i < 40; ++i) {
    sampler.SampleAppend(store, 1 + (i % 3));
    ASSERT_EQ(store.IndexBytes(), ExactFitIndexBytes(store)) << "append " << i;
  }
  ExpectIndexMatchesBruteForce(store);
  sampler.SampleAppend(store, 2000);
  ExpectIndexMatchesBruteForce(store);
  EXPECT_EQ(store.IndexBytes(), ExactFitIndexBytes(store));
  EXPECT_EQ(store.num_sets(), 300u + 79u + 2000u);
}

// The index build shards across a pool; after every big or trickle append
// the pooled store's index must equal the one built without a pool.
TEST(RrStoreIndexPoolTest, PooledBuildMatchesUnpooledAcrossGrowth) {
  constexpr graph::NodeId kNodes = 200;
  std::vector<graph::Edge> edges;
  for (graph::NodeId u = 0; u + 1 < kNodes; ++u) edges.push_back({u, u + 1});
  auto g = test::MustGraph(kNodes, edges);
  std::vector<double> probs(g.num_edges(), 0.7);
  auto sampler = test::InlineSampler(g, probs, 34);
  ThreadPool pool(4);
  RrStore unpooled(kNodes);
  RrStore pooled(kNodes);
  std::vector<graph::NodeId> nodes;
  std::vector<uint32_t> sizes;
  const auto append = [&](uint64_t count) {
    sampler.SampleToBuffer(unpooled.num_sets(), count, &nodes, &sizes);
    unpooled.AppendBatch(nodes, sizes, nullptr, /*provenance_seed=*/34);
    pooled.AppendBatch(nodes, sizes, &pool, /*provenance_seed=*/34);
    ASSERT_EQ(pooled.IndexBytes(), unpooled.IndexBytes());
    ASSERT_EQ(pooled.MemoryBytes(), unpooled.MemoryBytes());
    for (graph::NodeId v = 0; v < kNodes; ++v) {
      ASSERT_EQ(pooled.SetsContaining(v), unpooled.SetsContaining(v))
          << "node " << v;
    }
  };
  // Big batches hold enough postings (~3 per set) to shard the build:
  // 16384 is rr_store.cc's per-worker floor.
  ASSERT_NO_FATAL_FAILURE(append(20000));
  ASSERT_GE(pool.WorkersFor(pooled.PostingsInRange(0, pooled.num_sets()),
                            16384),
            2u);
  for (int i = 0; i < 10; ++i) ASSERT_NO_FATAL_FAILURE(append(1 + i % 3));
  ASSERT_NO_FATAL_FAILURE(append(20000));
  ExpectIndexMatchesBruteForce(pooled);
  EXPECT_EQ(pooled.IndexBytes(), ExactFitIndexBytes(pooled));
}

TEST(RrStoreIndexTest, EarlyExitStopsAscendingScan) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 32);
  RrStore store(3);
  sampler.SampleAppend(store, 100);
  // Node 0 is in every set (p = 1). Stop after 10 visited ids.
  std::vector<uint32_t> seen;
  const bool completed = store.ForEachSetContaining(0, [&](uint32_t r) {
    seen.push_back(r);
    return seen.size() < 10;
  });
  EXPECT_FALSE(completed);
  ASSERT_EQ(seen.size(), 10u);
  for (uint32_t k = 0; k < 10; ++k) EXPECT_EQ(seen[k], k);
}

TEST(RrStoreIndexTest, MemoryAccountingCoversIndexAndBeatsLegacyLayout) {
  auto g = test::MustGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  std::vector<double> probs(g.num_edges(), 0.6);
  auto sampler = test::InlineSampler(g, probs, 33);
  RrStore store(4);
  sampler.SampleAppend(store, 500);
  EXPECT_GT(store.MemoryBytes(), 0u);
  EXPECT_GT(store.IndexBytes(), 0u);
  EXPECT_LT(store.IndexBytes(), store.MemoryBytes());
}

// ---------- SampleSizer ----------

TEST(SampleSizerTest, ThetaShrinksWithLargerEpsilon) {
  auto g = test::MustGraph(100, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 99; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.1);
  SampleSizerOptions tight, loose;
  tight.epsilon = 0.1;
  loose.epsilon = 0.5;
  SampleSizer a(g, probs, tight), b(g, probs, loose);
  EXPECT_GT(a.ThetaFor(1), b.ThetaFor(1));
}

TEST(SampleSizerTest, OptLowerBoundConstantInSAndAtLeastOne) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  SampleSizer sizer(g, probs, opt);
  // Eq. 8's denominator is the pilot scalar max(1, KPT): one value for the
  // whole schedule, never re-evaluated per s (see sample_sizer.h).
  EXPECT_GE(sizer.OptLowerBound(), 1.0);
  EXPECT_GE(sizer.OptLowerBound(), sizer.kpt());
  SampleSizerOptions no_pilot = opt;
  no_pilot.run_kpt_pilot = false;
  SampleSizer bare(g, probs, no_pilot);
  EXPECT_DOUBLE_EQ(bare.OptLowerBound(), 1.0);
  EXPECT_DOUBLE_EQ(bare.kpt(), 0.0);
}

TEST(SampleSizerTest, ThetaCapRespectedAndCapHitsObservable) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  opt.epsilon = 0.01;
  opt.theta_cap = 1000;
  SampleSizer sizer(g, probs, opt);
  // ε = 0.01 on a 4-node graph wants far more than 1000 sets, so the cap
  // must saturate (ThetaSchedule counts the hits; see its tests below).
  EXPECT_EQ(sizer.ThetaFor(2), 1000u);
}

TEST(SampleSizerTest, OutOfRangeSClampedAndCounted) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  SampleSizer sizer(g, probs, opt);
  const uint64_t n = g.num_nodes();
  // s = 0 clamps to 1, s > n clamps to n (ThetaSchedule counts both).
  EXPECT_EQ(sizer.ThetaFor(0), sizer.ThetaFor(1));
  EXPECT_EQ(sizer.ThetaFor(n + 7), sizer.ThetaFor(n));
}

TEST(SampleSizerTest, EdgeCaseSingleNodeAndNoEdges) {
  // n = 1 (no pilot possible): θ must stay a positive, capped count.
  auto g1 = test::MustGraph(1, {});
  SampleSizerOptions opt;
  SampleSizer s1(g1, {}, opt);
  EXPECT_EQ(s1.pilot_sets(), 0u);
  EXPECT_FALSE(s1.pilot_converged());
  EXPECT_GE(s1.ThetaFor(1), 1u);
  EXPECT_LE(s1.ThetaFor(1), opt.theta_cap);

  // m = 0 with several nodes: pilot skipped, Eq. 8 still well-defined.
  auto g0 = test::MustGraph(5, {});
  SampleSizer s0(g0, {}, opt);
  EXPECT_EQ(s0.pilot_sets(), 0u);
  EXPECT_DOUBLE_EQ(s0.OptLowerBound(), 1.0);
  EXPECT_GE(s0.ThetaFor(3), 1u);
  EXPECT_LE(s0.ThetaFor(3), opt.theta_cap);
}

TEST(SampleSizerTest, PilotNonConvergenceIsObservable) {
  // Path graph with near-zero probabilities: mean RR width stays ~1, so
  // κ ≈ 1/m never crosses the 1/2^i threshold within the round budget —
  // the doubling loop must fall off the end and report non-convergence
  // (regression: this used to be silent).
  // n = 100 runs min(8, log2 100) = 6 doubling rounds, so the loosest
  // threshold is 1/64 ≈ 0.0156 while mean κ ≈ 1.001/99 ≈ 0.0101 — below
  // every round's bar by a wide margin.
  auto g = test::MustGraph(100, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 99; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.001);
  SampleSizerOptions opt;
  SampleSizer sizer(g, probs, opt);
  EXPECT_GT(sizer.pilot_sets(), 0u);
  EXPECT_FALSE(sizer.pilot_converged());
  // The last-round estimate is still retained as a (weak) lower bound.
  EXPECT_GT(sizer.kpt(), 0.0);

  // Contrast: a high-influence fixture converges within the budget.
  std::vector<double> hot(g.num_edges(), 0.9);
  SampleSizer converged(g, hot, opt);
  EXPECT_TRUE(converged.pilot_converged());
}

TEST(ThetaScheduleTest, MonotoneAndMatchesRunningMax) {
  auto g = test::MustGraph(60, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 59; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.2);
  SampleSizerOptions opt;
  opt.epsilon = 0.3;
  auto sizer = std::make_shared<const SampleSizer>(g, probs, opt);
  ThetaSchedule schedule(sizer);
  uint64_t prev = 0;
  uint64_t running_max = 0;
  for (uint64_t s = 1; s <= g.num_nodes(); ++s) {
    const uint64_t theta = schedule.ThetaFor(s);
    running_max = std::max(running_max, sizer->ThetaFor(s));
    EXPECT_GE(theta, prev) << "schedule must be non-decreasing at s=" << s;
    EXPECT_EQ(theta, running_max) << "s=" << s;
    prev = theta;
  }
}

TEST(ThetaScheduleTest, QueryOrderNeverChangesValuesAndClampsCounted) {
  auto g = test::MustGraph(30, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 29; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.2);
  SampleSizerOptions opt;
  opt.epsilon = 0.3;
  auto sizer = std::make_shared<const SampleSizer>(g, probs, opt);
  ThetaSchedule forward(sizer), backward(sizer);
  std::vector<uint64_t> fwd, bwd;
  for (uint64_t s = 1; s <= 20; ++s) fwd.push_back(forward.ThetaFor(s));
  for (uint64_t s = 20; s >= 1; --s) bwd.push_back(backward.ThetaFor(s));
  std::reverse(bwd.begin(), bwd.end());
  EXPECT_EQ(fwd, bwd);
  // Out-of-range queries clamp (s̃ past n is meaningless) and are counted.
  EXPECT_EQ(forward.clamped_queries(), 0u);
  EXPECT_EQ(forward.ThetaFor(10'000), forward.ThetaFor(g.num_nodes()));
  EXPECT_EQ(forward.clamped_queries(), 1u);
}

TEST(ThetaScheduleTest, CapSaturationCounted) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  opt.epsilon = 0.05;
  opt.theta_cap = 500;
  auto sizer = std::make_shared<const SampleSizer>(g, probs, opt);
  ThetaSchedule schedule(sizer);
  EXPECT_EQ(schedule.ThetaFor(2), 500u);
  EXPECT_EQ(schedule.cap_hits(), 1u);
}

TEST(SampleSizerTest, PilotRunsWhenEnabled) {
  auto g = test::MustGraph(64, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 63; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.3);
  SampleSizerOptions with_pilot, without;
  with_pilot.run_kpt_pilot = true;
  without.run_kpt_pilot = false;
  SampleSizer a(g, probs, with_pilot), b(g, probs, without);
  EXPECT_GT(a.pilot_sets(), 0u);
  EXPECT_EQ(b.pilot_sets(), 0u);
  // The pilot can only raise the OPT lower bound, hence shrink theta.
  EXPECT_LE(a.ThetaFor(1), b.ThetaFor(1));
}

// TIM's KPT estimation (Tang et al., SIGMOD 2014, Algorithm 2) for k = 1,
// written out literally over RrSampler::SampleIds: round i draws
// c_i = (6 ℓ ln n + 6 ln log2 n) · 2^i sets continuing the id sequence,
// and stops once mean κ(R) = w(R)/m, w(R) the in-degree sum of R, exceeds
// 1/2^i; at most 8 rounds.
struct LiteralPilot {
  double kpt = 0.0;
  uint64_t sets = 0;
  bool converged = false;
};

LiteralPilot LiteralTimPilot(const graph::Graph& g,
                             std::span<const double> probs,
                             const SampleSizerOptions& opt) {
  const double n = g.num_nodes();
  const double m = g.num_edges();
  const uint32_t rounds = std::min<uint32_t>(
      8, static_cast<uint32_t>(std::log2(n)));
  RrSampler sampler(g, probs);
  std::vector<uint32_t> sizes;
  std::vector<graph::NodeId> nodes;
  LiteralPilot pilot;
  for (uint32_t i = 1; i <= rounds; ++i) {
    const auto ci = static_cast<uint64_t>(std::ceil(
        (6.0 * /*ell=*/1.0 * std::log(n) +
         6.0 * std::log(std::max(2.0, std::log2(n)))) *
        std::pow(2.0, i)));
    sampler.SampleIds(HashSeed(opt.seed, 0x4b7), pilot.sets, ci, &sizes,
                      &nodes);
    pilot.sets += ci;
    double kappa_sum = 0.0;
    size_t at = 0;
    for (const uint32_t size : sizes) {
      uint64_t width = 0;
      for (uint32_t k = 0; k < size; ++k) width += g.InDegree(nodes[at++]);
      kappa_sum += static_cast<double>(width) / m;
    }
    pilot.kpt = n * kappa_sum / (2.0 * static_cast<double>(ci));
    if (kappa_sum / static_cast<double>(ci) > 1.0 / std::pow(2.0, i)) {
      pilot.converged = true;
      break;
    }
  }
  return pilot;
}

// Eq. 8 over the literal pilot's max(1, KPT), capped at theta_cap.
uint64_t LiteralTheta(uint64_t n, uint64_t s, double kpt,
                      const SampleSizerOptions& opt) {
  const double eps = opt.epsilon;
  const double theta = (8.0 + 2.0 * eps) * static_cast<double>(n) *
                       (/*ell=*/1.0 * std::log(static_cast<double>(n)) +
                        LogBinomial(n, s) + std::log(2.0)) /
                       (std::max(1.0, kpt) * eps * eps);
  if (theta >= static_cast<double>(opt.theta_cap)) return opt.theta_cap;
  return static_cast<uint64_t>(std::ceil(theta));
}

TEST(SampleSizerTest, KptMatchesLiteralTimPilot) {
  // The pilot is exactly TIM's loop over the per-id substreams — the width
  // summed over every in-arc of every member, skip coins included —
  // serially and on pools, so θ is too. The BA pilot runs all 8 rounds
  // without converging; the hub's converges in round 1.
  auto ba = graph::GenerateBarabasiAlbert(
      {.num_nodes = 400, .edges_per_node = 3, .seed = 9});
  ASSERT_TRUE(ba.ok());
  const auto hub = HubGraph(100);
  struct Case {
    const graph::Graph* g;
    std::vector<double> probs;
  };
  const Case cases[] = {
      {&ba.value(), std::vector<double>(ba.value().num_edges(), 0.08)},
      {&hub, HubProbs(hub, 0.01)}};
  ASSERT_TRUE(IsSkipCoin(BuildCoinColumn(hub, cases[1].probs)->nodes[0]));
  ThreadPool two(2), eight(8);
  for (const Case& c : cases) {
    SampleSizerOptions opt;
    opt.seed = 99;
    opt.epsilon = 0.2;
    const LiteralPilot want = LiteralTimPilot(*c.g, c.probs, opt);
    ASSERT_GT(want.sets, 0u);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two,
                             &eight}) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << c.g->num_nodes() << " pool "
                   << (pool == nullptr ? 0 : pool->concurrency()));
      opt.pool = pool;
      const SampleSizer sizer(*c.g, c.probs, opt);
      EXPECT_EQ(sizer.kpt(), want.kpt);
      EXPECT_EQ(sizer.pilot_sets(), want.sets);
      EXPECT_EQ(sizer.pilot_converged(), want.converged);
      for (uint64_t s = 1; s <= 20; ++s) {
        EXPECT_EQ(sizer.ThetaFor(s),
                  LiteralTheta(c.g->num_nodes(), s, want.kpt, opt))
            << "s=" << s;
      }
    }
  }
}

TEST(SampleSizerTest, DeterministicInSeed) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  opt.seed = 77;
  SampleSizer a(g, probs, opt), b(g, probs, opt);
  EXPECT_EQ(a.ThetaFor(2), b.ThetaFor(2));
}

// ---------- Singleton estimator ----------

TEST(SingletonEstimatorTest, MatchesExactOnDiamond) {
  auto g = test::MakeDiamond();
  std::vector<double> probs = {0.5, 0.5, 0.5, 0.5};
  auto est = EstimateAllSingletonSpreads(g, probs, 300'000, 21, nullptr);
  ASSERT_TRUE(est.ok());
  for (graph::NodeId u = 0; u < 4; ++u) {
    const graph::NodeId seeds[1] = {u};
    const double exact = diffusion::ExactSpread(g, probs, seeds).value();
    EXPECT_NEAR(est.value()[u], exact, 0.03) << "node " << u;
  }
}

TEST(SingletonEstimatorTest, FloorsAtOne) {
  auto g = test::MustGraph(3, {{0, 1}});
  std::vector<double> probs = {0.0};
  auto est = EstimateAllSingletonSpreads(g, probs, 1000, 22, nullptr);
  ASSERT_TRUE(est.ok());
  for (double v : est.value()) EXPECT_GE(v, 1.0);
}

TEST(SingletonEstimatorTest, CountsSampleIdsSets) {
  // σ({u}) = n · |{R : u ∈ R}| / θ over the sets SampleIds draws for ids
  // [0, θ) from `seed` — θ past one 2^16-id batch, so batching must not
  // change which sets are drawn.
  auto g = graph::GenerateBarabasiAlbert(
      {.num_nodes = 300, .edges_per_node = 3, .seed = 4});
  ASSERT_TRUE(g.ok());
  const std::vector<double> probs(g.value().num_edges(), 0.1);
  const uint64_t theta = 70'000;
  RrSampler sampler(g.value(), probs);
  std::vector<uint32_t> sizes;
  std::vector<graph::NodeId> nodes;
  sampler.SampleIds(23, 0, theta, &sizes, &nodes);
  std::vector<uint64_t> count(g.value().num_nodes(), 0);
  for (const graph::NodeId v : nodes) ++count[v];

  auto est = EstimateAllSingletonSpreads(g.value(), probs, theta, 23,
                                         nullptr);
  ASSERT_TRUE(est.ok());
  ASSERT_EQ(est.value().size(), count.size());
  const double scale = 300.0 / static_cast<double>(theta);
  for (graph::NodeId u = 0; u < count.size(); ++u) {
    EXPECT_EQ(est.value()[u],
              std::max(1.0, static_cast<double>(count[u]) * scale))
        << "node " << u;
  }
}

TEST(SingletonEstimatorTest, RejectsZeroTheta) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  EXPECT_FALSE(EstimateAllSingletonSpreads(g, probs, 0, 1, nullptr).ok());
}

}  // namespace
}  // namespace isa::rrset
