#include <gtest/gtest.h>

#include <limits>

#include "core/problem.h"
#include "core/spread_oracle.h"
#include "tests/test_util.h"

namespace isa::core {
namespace {

AdvertiserSpec Ad(double cpe, double budget) {
  AdvertiserSpec a;
  a.cpe = cpe;
  a.budget = budget;
  a.gamma = topic::TopicDistribution::Uniform(1);
  return a;
}

TEST(RmInstanceTest, CreateAndAccessors) {
  auto owned = test::MakeInstance(
      3, {{0, 1}, {1, 2}}, 0.5, {Ad(1.5, 10.0), Ad(2.0, 20.0)},
      {{1.0, 2.0, 3.0}, {0.5, 0.5, 0.5}});
  const RmInstance& inst = *owned.instance;
  EXPECT_EQ(inst.num_ads(), 2u);
  EXPECT_EQ(inst.num_nodes(), 3u);
  EXPECT_DOUBLE_EQ(inst.cpe(0), 1.5);
  EXPECT_DOUBLE_EQ(inst.budget(1), 20.0);
  EXPECT_DOUBLE_EQ(inst.incentive(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(inst.max_incentive(0), 3.0);
  EXPECT_DOUBLE_EQ(inst.max_incentive(1), 0.5);
  EXPECT_EQ(inst.ad_probs(0).size(), 2u);
  EXPECT_DOUBLE_EQ(inst.ad_probs(0)[0], 0.5);
}

TEST(RmInstanceTest, ValidationErrors) {
  auto g = test::MustGraph(2, {{0, 1}});
  auto topics =
      test::RegimeTopics(g, graph::WeightingRegime::kUniformIc, 1, 0.5).value();
  auto mk = [&](double cpe, double budget,
                std::vector<std::vector<double>> inc) {
    AdvertiserSpec a = Ad(cpe, budget);
    return RmInstance::Create(g, topics, {a}, std::move(inc));
  };
  EXPECT_FALSE(mk(0.0, 5.0, {{1, 1}}).ok());        // cpe <= 0
  EXPECT_FALSE(mk(1.0, 0.0, {{1, 1}}).ok());        // budget <= 0
  EXPECT_FALSE(mk(1.0, 5.0, {{1}}).ok());           // wrong incentive size
  EXPECT_FALSE(mk(1.0, 5.0, {{1, -2}}).ok());       // negative incentive
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(mk(nan, 5.0, {{1, 1}}).ok());        // NaN cpe
  EXPECT_FALSE(mk(1.0, nan, {{1, 1}}).ok());        // NaN budget
  EXPECT_FALSE(mk(1.0, 5.0, {{1, nan}}).ok());      // NaN incentive
  EXPECT_FALSE(mk(1.0, 5.0, {}).ok());              // missing schedule
  EXPECT_FALSE(RmInstance::Create(g, topics, {}, {}).ok());  // no ads
}

TEST(AllocationTest, TotalSeedsAndDisjointness) {
  Allocation a;
  a.seed_sets = {{0, 1}, {2}};
  EXPECT_EQ(a.TotalSeeds(), 3u);
  EXPECT_TRUE(a.IsDisjoint(5));

  Allocation overlap;
  overlap.seed_sets = {{0, 1}, {1}};
  EXPECT_FALSE(overlap.IsDisjoint(5));

  Allocation repeat;
  repeat.seed_sets = {{2, 2}};
  EXPECT_FALSE(repeat.IsDisjoint(5));

  Allocation out_of_range;
  out_of_range.seed_sets = {{9}};
  EXPECT_FALSE(out_of_range.IsDisjoint(5));
}

TEST(EvaluateAllocationTest, AccountingOnDeterministicChain) {
  // Chain 0->1->2, p = 1, cpe = 2, incentives 1 each, budget 10.
  auto owned = test::MakeInstance(3, {{0, 1}, {1, 2}}, 1.0, {Ad(2.0, 10.0)},
                                  {{1.0, 1.0, 1.0}});
  auto oracle = ExactSpreadOracle::Create(*owned.instance);
  ASSERT_TRUE(oracle.ok());
  Allocation alloc;
  alloc.seed_sets = {{0}};
  auto eval = EvaluateAllocation(*owned.instance, alloc, *oracle.value());
  EXPECT_DOUBLE_EQ(eval.spread[0], 3.0);
  EXPECT_DOUBLE_EQ(eval.revenue[0], 6.0);
  EXPECT_DOUBLE_EQ(eval.seeding_cost[0], 1.0);
  EXPECT_DOUBLE_EQ(eval.payment[0], 7.0);
  EXPECT_DOUBLE_EQ(eval.total_revenue, 6.0);
  EXPECT_TRUE(eval.feasible);
}

TEST(EvaluateAllocationTest, FlagsBudgetViolation) {
  auto owned = test::MakeInstance(3, {{0, 1}, {1, 2}}, 1.0, {Ad(2.0, 5.0)},
                                  {{1.0, 1.0, 1.0}});
  auto oracle = ExactSpreadOracle::Create(*owned.instance);
  ASSERT_TRUE(oracle.ok());
  Allocation alloc;
  alloc.seed_sets = {{0}};  // payment 7 > budget 5
  auto eval = EvaluateAllocation(*owned.instance, alloc, *oracle.value());
  EXPECT_FALSE(eval.feasible);
}

TEST(EvaluateAllocationTest, FlagsOverlap) {
  auto owned = test::MakeInstance(
      3, {{0, 1}, {1, 2}}, 1.0, {Ad(1.0, 100.0), Ad(1.0, 100.0)},
      {{0.1, 0.1, 0.1}, {0.1, 0.1, 0.1}});
  auto oracle = ExactSpreadOracle::Create(*owned.instance);
  ASSERT_TRUE(oracle.ok());
  Allocation alloc;
  alloc.seed_sets = {{0}, {0}};
  auto eval = EvaluateAllocation(*owned.instance, alloc, *oracle.value());
  EXPECT_FALSE(eval.feasible);
}

TEST(SpreadOracleTest, ExactRejectsLargeGraph) {
  std::vector<graph::Edge> edges;
  for (graph::NodeId u = 0; u < 30; ++u) edges.push_back({u, u + 1});
  auto owned = test::MakeInstance(31, std::move(edges), 0.5, {Ad(1.0, 5.0)},
                                  {std::vector<double>(31, 1.0)});
  EXPECT_FALSE(ExactSpreadOracle::Create(*owned.instance).ok());
}

TEST(SpreadOracleTest, McMatchesExactOnDiamond) {
  auto owned = test::MakeInstance(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, 0.5,
                                  {Ad(1.0, 100.0)},
                                  {std::vector<double>(4, 1.0)});
  auto exact = ExactSpreadOracle::Create(*owned.instance);
  ASSERT_TRUE(exact.ok());
  McSpreadOracle mc(*owned.instance, 200'000, 31);
  const graph::NodeId seeds[1] = {0};
  EXPECT_NEAR(mc.Spread(0, seeds), exact.value()->Spread(0, seeds), 0.02);
  EXPECT_EQ(mc.query_count(), 1u);
}

TEST(SpreadOracleTest, McDeterministicPerAdQuery) {
  auto owned = test::MakeInstance(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, 0.5,
                                  {Ad(1.0, 100.0)},
                                  {std::vector<double>(4, 1.0)});
  McSpreadOracle a(*owned.instance, 1000, 7);
  McSpreadOracle b(*owned.instance, 1000, 7);
  const graph::NodeId seeds[2] = {0, 3};
  EXPECT_DOUBLE_EQ(a.Spread(0, seeds), b.Spread(0, seeds));
}

}  // namespace
}  // namespace isa::core
