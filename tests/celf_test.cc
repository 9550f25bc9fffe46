// CELF lazy-evaluation greedy: must match the scan-based Algorithm 1
// selection while issuing far fewer oracle queries.

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/spread_oracle.h"
#include "graph/generators.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa::core {
namespace {

AdvertiserSpec Ad(double cpe, double budget) {
  AdvertiserSpec a;
  a.cpe = cpe;
  a.budget = budget;
  a.gamma = topic::TopicDistribution::Uniform(1);
  return a;
}

test::OwnedInstance StarInstance(double budget, std::vector<double> costs) {
  return test::MakeInstance(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}}, 1.0,
                            {Ad(1.0, budget)}, {std::move(costs)});
}

TEST(CelfTest, MatchesScanOnStar) {
  auto owned = StarInstance(100.0, {2, 1, 1, 1, 1});
  auto o1 = ExactSpreadOracle::Create(*owned.instance);
  auto o2 = ExactSpreadOracle::Create(*owned.instance);
  GreedyOptions plain, lazy;
  lazy.lazy = true;
  auto a = RunGreedy(*owned.instance, *o1.value(), plain);
  auto b = RunGreedy(*owned.instance, *o2.value(), lazy);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().allocation.seed_sets, b.value().allocation.seed_sets);
  EXPECT_DOUBLE_EQ(a.value().total_revenue, b.value().total_revenue);
}

TEST(CelfTest, MatchesScanOnTightnessGadget) {
  for (bool cs : {false, true}) {
    auto owned = test::MakeTightnessGadget();
    auto o1 = ExactSpreadOracle::Create(*owned.instance);
    auto o2 = ExactSpreadOracle::Create(*owned.instance);
    GreedyOptions plain, lazy;
    plain.cost_sensitive = lazy.cost_sensitive = cs;
    lazy.lazy = true;
    auto a = RunGreedy(*owned.instance, *o1.value(), plain);
    auto b = RunGreedy(*owned.instance, *o2.value(), lazy);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_DOUBLE_EQ(a.value().total_revenue, b.value().total_revenue)
        << "cost_sensitive=" << cs;
  }
}

TEST(CelfTest, SavesOracleQueriesOnLargerInstance) {
  auto g = graph::GenerateBarabasiAlbert(
               {.num_nodes = 60, .edges_per_node = 2, .seed = 3})
               .value();
  auto topics =
      test::RegimeTopics(g, graph::WeightingRegime::kUniformIc, 1, 0.05)
          .value();
  std::vector<double> cost(g.num_nodes(), 0.5);
  auto inst = RmInstance::Create(g, topics, {Ad(1.0, 20.0), Ad(1.0, 20.0)},
                                 {cost, cost})
                  .value();
  McSpreadOracle o1(inst, 300, 5), o2(inst, 300, 5);
  GreedyOptions plain, lazy;
  lazy.lazy = true;
  auto a = RunGreedy(inst, o1, plain);
  auto b = RunGreedy(inst, o2, lazy);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(b.value().oracle_queries, a.value().oracle_queries / 2);
  // Same estimator stream -> comparable quality.
  EXPECT_NEAR(b.value().total_revenue, a.value().total_revenue,
              0.15 * std::max(1.0, a.value().total_revenue));
}

TEST(CelfTest, RespectsBudgetAndMatroid) {
  auto g = graph::GenerateBarabasiAlbert(
               {.num_nodes = 40, .edges_per_node = 2, .seed = 9})
               .value();
  auto topics =
      test::RegimeTopics(g, graph::WeightingRegime::kUniformIc, 1, 0.1).value();
  std::vector<double> cost(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    cost[u] = 0.3 * (1 + g.OutDegree(u));
  }
  auto inst = RmInstance::Create(g, topics, {Ad(1.5, 10.0), Ad(1.0, 8.0)},
                                 {cost, cost})
                  .value();
  McSpreadOracle oracle(inst, 500, 7);
  GreedyOptions lazy;
  lazy.lazy = true;
  lazy.cost_sensitive = true;
  auto res = RunGreedy(inst, oracle, lazy);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().allocation.IsDisjoint(g.num_nodes()));
  EXPECT_LE(res.value().payment[0], 10.0 + 1e-6);
  EXPECT_LE(res.value().payment[1], 8.0 + 1e-6);
}

TEST(CelfTest, MaxSeedsCap) {
  auto owned = StarInstance(1000.0, {1, 1, 1, 1, 1});
  auto oracle = ExactSpreadOracle::Create(*owned.instance);
  GreedyOptions lazy;
  lazy.lazy = true;
  lazy.max_seeds = 2;
  auto res = RunGreedy(*owned.instance, *oracle.value(), lazy);
  ASSERT_TRUE(res.ok());
  EXPECT_LE(res.value().allocation.TotalSeeds(), 2u);
}

}  // namespace
}  // namespace isa::core
