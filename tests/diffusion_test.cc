#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "diffusion/cascade.h"
#include "diffusion/exact.h"
#include "tests/test_util.h"

namespace isa::diffusion {
namespace {

std::vector<double> Probs(const graph::Graph& g, double p) {
  return std::vector<double>(g.num_edges(), p);
}

TEST(CascadeTest, DeterministicEdgesActivateEverything) {
  // Chain 0 -> 1 -> 2 -> 3 with p = 1.
  auto g = test::MustGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  CascadeSimulator sim(g);
  Rng rng(1);
  auto probs = Probs(g, 1.0);
  const graph::NodeId seeds[1] = {0};
  EXPECT_EQ(sim.RunOnce(probs, seeds, rng), 4u);
}

TEST(CascadeTest, ZeroProbabilityActivatesOnlySeeds) {
  auto g = test::MustGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  CascadeSimulator sim(g);
  Rng rng(1);
  auto probs = Probs(g, 0.0);
  const graph::NodeId seeds[2] = {0, 2};
  EXPECT_EQ(sim.RunOnce(probs, seeds, rng), 2u);
}

TEST(CascadeTest, DuplicateSeedsCountedOnce) {
  auto g = test::MustGraph(3, {{0, 1}});
  CascadeSimulator sim(g);
  Rng rng(1);
  auto probs = Probs(g, 0.0);
  const graph::NodeId seeds[3] = {0, 0, 0};
  EXPECT_EQ(sim.RunOnce(probs, seeds, rng), 1u);
}

TEST(CascadeTest, EstimateSpreadDeterministicInSeed) {
  auto g = test::MakeDiamond();
  CascadeSimulator sim(g);
  auto probs = Probs(g, 0.5);
  const graph::NodeId seeds[1] = {0};
  const double a = sim.EstimateSpread(probs, seeds, 1000, 7);
  const double b = sim.EstimateSpread(probs, seeds, 1000, 7);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(CascadeTest, EmptySeedsZeroSpread) {
  auto g = test::MakeDiamond();
  CascadeSimulator sim(g);
  auto probs = Probs(g, 0.5);
  EXPECT_DOUBLE_EQ(sim.EstimateSpread(probs, {}, 100, 1), 0.0);
}

TEST(ExactSpreadTest, TwoNodeHandComputed) {
  // 0 -> 1 with p = 0.5: sigma({0}) = 1 + 0.5 = 1.5.
  auto g = test::MustGraph(2, {{0, 1}});
  std::vector<double> probs = {0.5};
  const graph::NodeId seeds[1] = {0};
  auto s = ExactSpread(g, probs, seeds);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.value(), 1.5, 1e-12);
}

TEST(ExactSpreadTest, DiamondHandComputed) {
  // Diamond with p = 0.5 everywhere, seed {0}:
  // sigma = 1 + P(1) + P(2) + P(3) = 1 + .5 + .5 + P(3).
  // P(3) = P(reach 3) = 1 - (1 - .5*.5)^2 = 1 - 0.5625 = 0.4375.
  auto g = test::MakeDiamond();
  std::vector<double> probs = {0.5, 0.5, 0.5, 0.5};
  const graph::NodeId seeds[1] = {0};
  auto s = ExactSpread(g, probs, seeds);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.value(), 1.0 + 0.5 + 0.5 + 0.4375, 1e-12);
}

TEST(ExactSpreadTest, DeterministicArcsShortCircuit) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs = {1.0, 0.0};
  const graph::NodeId seeds[1] = {0};
  auto s = ExactSpread(g, probs, seeds);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.value(), 2.0, 1e-12);
}

TEST(ExactSpreadTest, EmptySeeds) {
  auto g = test::MakeDiamond();
  std::vector<double> probs = {0.5, 0.5, 0.5, 0.5};
  auto s = ExactSpread(g, probs, {});
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(ExactSpreadTest, RejectsLargeGraphs) {
  std::vector<graph::Edge> edges;
  for (graph::NodeId u = 0; u < 30; ++u) edges.push_back({u, u + 1});
  auto g = test::MustGraph(31, std::move(edges));
  std::vector<double> probs(g.num_edges(), 0.5);
  const graph::NodeId seeds[1] = {0};
  EXPECT_FALSE(ExactSpread(g, probs, seeds).ok());
}

TEST(McVsExactTest, EstimatesConvergeToExact) {
  auto g = test::MakeDiamond();
  std::vector<double> probs = {0.3, 0.7, 0.6, 0.2};
  const graph::NodeId seeds[1] = {0};
  const double exact = ExactSpread(g, probs, seeds).value();
  CascadeSimulator sim(g);
  const double mc = sim.EstimateSpread(probs, seeds, 200'000, 11);
  EXPECT_NEAR(mc, exact, 0.01);
}

TEST(McVsExactTest, MultiSeed) {
  auto g = test::MustGraph(5, {{0, 1}, {1, 2}, {3, 2}, {3, 4}, {4, 0}});
  std::vector<double> probs = {0.4, 0.5, 0.6, 0.7, 0.8};
  const graph::NodeId seeds[2] = {0, 3};
  const double exact = ExactSpread(g, probs, seeds).value();
  CascadeSimulator sim(g);
  const double mc = sim.EstimateSpread(probs, seeds, 200'000, 13);
  EXPECT_NEAR(mc, exact, 0.01);
}

TEST(SingletonSpreadsTest, MonotoneInReachability) {
  // Chain: earlier nodes reach more, so singleton spread decreases.
  auto g = test::MustGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  auto spreads = EstimateSingletonSpreads(g, Probs(g, 0.9), 20'000, 3);
  ASSERT_EQ(spreads.size(), 4u);
  EXPECT_GT(spreads[0], spreads[1]);
  EXPECT_GT(spreads[1], spreads[2]);
  EXPECT_GT(spreads[2], spreads[3]);
  EXPECT_NEAR(spreads[3], 1.0, 1e-9);  // sink only reaches itself
}

TEST(SingletonSpreadProxyTest, OutDegreePlusOne) {
  auto g = test::MustGraph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  auto proxy = SingletonSpreadProxy(g);
  EXPECT_DOUBLE_EQ(proxy[0], 4.0);
  EXPECT_DOUBLE_EQ(proxy[1], 2.0);
  EXPECT_DOUBLE_EQ(proxy[2], 1.0);
}

// Property sweep: MC estimator is consistent with the exact value across
// probability levels.
class McAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(McAccuracy, DiamondSpreadWithinTolerance) {
  const double p = GetParam();
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), p);
  const graph::NodeId seeds[1] = {0};
  const double exact = ExactSpread(g, probs, seeds).value();
  CascadeSimulator sim(g);
  const double mc = sim.EstimateSpread(probs, seeds, 100'000, 23);
  EXPECT_NEAR(mc, exact, 0.02) << "p = " << p;
}

INSTANTIATE_TEST_SUITE_P(ProbabilityLevels, McAccuracy,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

}  // namespace
}  // namespace isa::diffusion
