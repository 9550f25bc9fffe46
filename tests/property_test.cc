// Property-based tests: invariants that must hold across randomized
// instances, swept with parameterized gtest.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "core/greedy.h"
#include "core/spread_oracle.h"
#include "core/ti_greedy.h"
#include "diffusion/cascade.h"
#include "diffusion/exact.h"
#include "graph/dataset_catalog.h"
#include "graph/generators.h"
#include "rrset/rr_sampler.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa {
namespace {

// Random small graph + probabilities, deterministic in `seed`.
struct RandomGadget {
  graph::Graph g;
  std::vector<double> probs;
};

RandomGadget MakeGadget(uint64_t seed, graph::NodeId n = 6,
                        uint32_t num_edges = 9) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  while (edges.size() < num_edges) {
    auto u = static_cast<graph::NodeId>(rng.NextBounded(n));
    auto v = static_cast<graph::NodeId>(rng.NextBounded(n));
    if (u != v) edges.push_back({u, v});
  }
  RandomGadget out{test::MustGraph(n, std::move(edges)), {}};
  out.probs.resize(out.g.num_edges());
  for (auto& p : out.probs) p = 0.1 + 0.8 * rng.NextDouble();
  return out;
}

class SpreadProperties : public ::testing::TestWithParam<uint64_t> {};

// sigma is monotone: adding a seed never decreases exact spread.
TEST_P(SpreadProperties, ExactSpreadMonotone) {
  auto gadget = MakeGadget(GetParam());
  Rng rng(GetParam() ^ 0xabc);
  std::vector<graph::NodeId> base;
  for (graph::NodeId u = 0; u < gadget.g.num_nodes(); ++u) {
    if (rng.NextBernoulli(0.3)) base.push_back(u);
  }
  const double sigma_base =
      diffusion::ExactSpread(gadget.g, gadget.probs, base).value();
  for (graph::NodeId u = 0; u < gadget.g.num_nodes(); ++u) {
    std::vector<graph::NodeId> with = base;
    with.push_back(u);
    const double sigma_with =
        diffusion::ExactSpread(gadget.g, gadget.probs, with).value();
    EXPECT_GE(sigma_with + 1e-9, sigma_base);
  }
}

// sigma is submodular: marginal gains shrink as the base set grows.
TEST_P(SpreadProperties, ExactSpreadSubmodular) {
  auto gadget = MakeGadget(GetParam());
  const graph::NodeId n = gadget.g.num_nodes();
  Rng rng(GetParam() ^ 0xdef);
  std::vector<graph::NodeId> small, large;
  for (graph::NodeId u = 0; u < n; ++u) {
    const bool in_small = rng.NextBernoulli(0.25);
    if (in_small) small.push_back(u);
    if (in_small || rng.NextBernoulli(0.25)) large.push_back(u);
  }
  auto sigma = [&](const std::vector<graph::NodeId>& s) {
    return diffusion::ExactSpread(gadget.g, gadget.probs, s).value();
  };
  const double sigma_small = sigma(small);
  const double sigma_large = sigma(large);
  for (graph::NodeId x = 0; x < n; ++x) {
    if (std::find(large.begin(), large.end(), x) != large.end()) continue;
    auto small_x = small;
    small_x.push_back(x);
    auto large_x = large;
    large_x.push_back(x);
    EXPECT_GE(sigma(small_x) - sigma_small + 1e-9,
              sigma(large_x) - sigma_large)
        << "element " << x;
  }
}

// The RR estimator agrees with exact spread for singleton seeds.
TEST_P(SpreadProperties, RrEstimatorUnbiased) {
  auto gadget = MakeGadget(GetParam());
  const graph::NodeId n = gadget.g.num_nodes();
  rrset::RrSampler sampler(gadget.g, gadget.probs);
  Rng rng(GetParam() ^ 0x111);
  std::vector<uint32_t> count(n, 0);
  std::vector<graph::NodeId> rr;
  const int theta = 60'000;
  for (int i = 0; i < theta; ++i) {
    sampler.SampleInto(rng, &rr);
    for (auto v : rr) ++count[v];
  }
  for (graph::NodeId u = 0; u < n; ++u) {
    const graph::NodeId s[1] = {u};
    const double exact =
        diffusion::ExactSpread(gadget.g, gadget.probs, s).value();
    const double est = static_cast<double>(n) * count[u] / theta;
    EXPECT_NEAR(est, exact, 0.15) << "node " << u;
  }
}

// MC estimate agrees with exact spread on random gadgets.
TEST_P(SpreadProperties, McEstimatorConsistent) {
  auto gadget = MakeGadget(GetParam());
  diffusion::CascadeSimulator sim(gadget.g);
  const graph::NodeId seeds[2] = {0, 3};
  const double exact =
      diffusion::ExactSpread(gadget.g, gadget.probs, seeds).value();
  const double mc =
      sim.EstimateSpread(gadget.probs, seeds, 80'000, GetParam());
  EXPECT_NEAR(mc, exact, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Gadgets, SpreadProperties,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- Weighting-regime RR distributions (dataset catalog) ----------

// For every weighting regime the catalog can materialize, the sampled
// RR-set membership frequency of each node must match its brute-force
// reachability probability: with a uniform random root r,
// P(v in RR) = sigma({v}) / n (sigma exact under IC). The tolerance is a
// Chernoff bound, not a magic constant: count[v] ~ Binomial(theta, p)
// concentrates as P(|count - theta p| >= delta theta p) <= 2 exp(-delta^2
// theta p / 3), so delta = sqrt(3 ln(2/eps) / (theta p)) gives a per-node
// failure probability eps = 1e-9 — across all regimes/topics/nodes the
// test is deterministic-in-practice while staying honestly statistical.
TEST(RrRegimeDistribution, MatchesBruteForceWithinChernoffBound) {
  // 5-node gadget with mixed in-degrees (indeg 2 at nodes 2 and 4).
  const graph::Graph g = test::MustGraph(
      5, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 2}, {1, 4}});
  const graph::NodeId n = g.num_nodes();
  const uint64_t theta = 150'000;
  const double ln_term = std::log(2.0 / 1e-9);

  struct RegimeCase {
    graph::WeightingRegime regime;
    uint32_t topics;
  };
  const RegimeCase cases[] = {
      {graph::WeightingRegime::kWeightedCascade, 1},
      {graph::WeightingRegime::kUniformIc, 1},
      {graph::WeightingRegime::kTopicMix, 3},
  };
  for (const RegimeCase& c : cases) {
    auto weights =
        graph::MakeRegimeWeights(g, c.regime, c.topics, 0.35, 2017);
    ASSERT_TRUE(weights.ok()) << weights.status().ToString();
    ASSERT_EQ(weights.value().size(), c.topics);
    for (uint32_t z = 0; z < c.topics; ++z) {
      const std::vector<double>& probs = weights.value()[z];
      rrset::RrSampler sampler(g, probs);
      Rng rng(0x5eed ^ z);
      std::vector<uint64_t> count(n, 0);
      std::vector<graph::NodeId> rr;
      for (uint64_t i = 0; i < theta; ++i) {
        sampler.SampleInto(rng, &rr);
        for (auto v : rr) ++count[v];
      }
      for (graph::NodeId v = 0; v < n; ++v) {
        const graph::NodeId s[1] = {v};
        const double sigma =
            diffusion::ExactSpread(g, probs, s).value();
        const double p = sigma / n;  // >= 1/n: v always reaches itself
        const double delta =
            std::sqrt(3.0 * ln_term / (static_cast<double>(theta) * p));
        const double observed = static_cast<double>(count[v]) / theta;
        EXPECT_NEAR(observed, p, delta * p)
            << graph::WeightingRegimeName(c.regime) << " topic " << z
            << " node " << v;
      }
    }
  }
}

// ---------- Greedy invariants over randomized instances ----------

core::AdvertiserSpec Ad(double cpe, double budget) {
  core::AdvertiserSpec a;
  a.cpe = cpe;
  a.budget = budget;
  a.gamma = topic::TopicDistribution::Uniform(1);
  return a;
}

class GreedyProperties
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(GreedyProperties, AllocationAlwaysFeasible) {
  auto [seed, cost_sensitive] = GetParam();
  Rng rng(seed);
  auto gadget = MakeGadget(seed, 7, 10);
  const graph::NodeId n = gadget.g.num_nodes();
  std::vector<core::AdvertiserSpec> ads = {Ad(1.0, 4.0 + rng.NextDouble() * 6),
                                           Ad(1.5, 3.0 + rng.NextDouble() * 5)};
  std::vector<std::vector<double>> incentives(2);
  for (auto& sched : incentives) {
    sched.resize(n);
    for (auto& c : sched) c = rng.NextDouble() * 2.0;
  }
  auto topics_probs = std::vector<std::vector<double>>{gadget.probs};
  auto topics =
      topic::TopicEdgeProbabilities::Create(gadget.g, topics_probs).value();
  auto inst = core::RmInstance::Create(gadget.g, topics, ads,
                                       std::move(incentives));
  ASSERT_TRUE(inst.ok());
  auto oracle = core::ExactSpreadOracle::Create(inst.value());
  ASSERT_TRUE(oracle.ok());
  core::GreedyOptions opt;
  opt.cost_sensitive = cost_sensitive;
  auto res = core::RunGreedy(inst.value(), *oracle.value(), opt);
  ASSERT_TRUE(res.ok());
  // Invariants: disjoint, within budget (verified by exact re-evaluation).
  EXPECT_TRUE(res.value().allocation.IsDisjoint(n));
  auto eval = core::EvaluateAllocation(inst.value(), res.value().allocation,
                                       *oracle.value());
  EXPECT_TRUE(eval.feasible);
  // Greedy's internal accounting matches the re-evaluation.
  EXPECT_NEAR(eval.total_revenue, res.value().total_revenue, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Instances, GreedyProperties,
    ::testing::Combine(::testing::Values<uint64_t>(3, 7, 11, 19, 23, 31),
                       ::testing::Bool()));

// ---------- TI invariants across epsilon / window sweeps ----------

class TiSweep
    : public ::testing::TestWithParam<std::tuple<double, uint32_t>> {};

TEST_P(TiSweep, FeasibleAcrossEpsilonAndWindow) {
  auto [epsilon, window] = GetParam();
  auto g = graph::GenerateBarabasiAlbert(
      {.num_nodes = 200, .edges_per_node = 2, .seed = 13});
  ASSERT_TRUE(g.ok());
  auto topics =
      test::RegimeTopics(g.value(), graph::WeightingRegime::kWeightedCascade)
          .value();
  std::vector<double> cost(g.value().num_nodes());
  for (graph::NodeId u = 0; u < g.value().num_nodes(); ++u) {
    cost[u] = 0.2 * (1 + g.value().OutDegree(u));
  }
  auto inst = core::RmInstance::Create(
      g.value(), topics, {Ad(1.0, 25.0), Ad(1.0, 25.0)}, {cost, cost});
  ASSERT_TRUE(inst.ok());
  core::TiOptions opt;
  opt.epsilon = epsilon;
  opt.window = window;
  opt.theta_cap = 20'000;
  opt.seed = 5;
  auto res = core::RunTiCsrm(inst.value(), opt);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().allocation.IsDisjoint(g.value().num_nodes()));
  for (uint32_t j = 0; j < 2; ++j) {
    EXPECT_LE(res.value().ad_stats[j].payment, 25.0 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonWindow, TiSweep,
    ::testing::Combine(::testing::Values(0.2, 0.3, 0.5),
                       ::testing::Values<uint32_t>(0, 1, 10, 100)));

}  // namespace
}  // namespace isa
