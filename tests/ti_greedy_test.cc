#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/spread_oracle.h"
#include "core/ti_greedy.h"
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

// A medium instance on a BA graph with weighted-cascade probabilities and
// linear-style skewed incentives.
struct MediumFixture {
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<topic::TopicEdgeProbabilities> topics;
  std::unique_ptr<RmInstance> instance;
};

MediumFixture MakeMedium(uint32_t h, double budget, double alpha = 0.2,
                         graph::NodeId n = 400) {
  MediumFixture f;
  auto g = graph::GenerateBarabasiAlbert(
      {.num_nodes = n, .edges_per_node = 3, .seed = 7});
  ISA_CHECK(g.ok());
  f.graph = std::make_unique<graph::Graph>(std::move(g).value());
  auto topics = topic::MakeWeightedCascade(*f.graph, 1);
  ISA_CHECK(topics.ok());
  f.topics = std::make_unique<topic::TopicEdgeProbabilities>(
      std::move(topics).value());
  // Linear incentives on the out-degree proxy.
  std::vector<double> cost(f.graph->num_nodes());
  for (graph::NodeId u = 0; u < f.graph->num_nodes(); ++u) {
    cost[u] = alpha * (1.0 + f.graph->OutDegree(u));
  }
  std::vector<AdvertiserSpec> ads(h, Ad(1.0, budget));
  std::vector<std::vector<double>> incentives(h, cost);
  auto inst =
      RmInstance::Create(*f.graph, *f.topics, std::move(ads),
                         std::move(incentives));
  ISA_CHECK(inst.ok());
  f.instance = std::make_unique<RmInstance>(std::move(inst).value());
  return f;
}

TiOptions FastOptions() {
  TiOptions opt;
  opt.epsilon = 0.3;
  opt.theta_cap = 30'000;
  opt.seed = 11;
  return opt;
}

TEST(TiGreedyTest, CarmProducesFeasibleAllocation) {
  auto f = MakeMedium(3, 40.0);
  auto res = RunTiCarm(*f.instance, FastOptions());
  ASSERT_TRUE(res.ok());
  const TiResult& r = res.value();
  EXPECT_TRUE(r.allocation.IsDisjoint(f.instance->num_nodes()));
  for (uint32_t j = 0; j < 3; ++j) {
    EXPECT_LE(r.ad_stats[j].payment, f.instance->budget(j) + 1e-6);
    EXPECT_GT(r.ad_stats[j].theta, 0u);
  }
  EXPECT_GT(r.total_seeds, 0u);
  EXPECT_GT(r.total_revenue, 0.0);
  EXPECT_GT(r.total_rr_memory_bytes, 0u);
}

TEST(TiGreedyTest, CsrmProducesFeasibleAllocation) {
  auto f = MakeMedium(3, 40.0);
  auto res = RunTiCsrm(*f.instance, FastOptions());
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().allocation.IsDisjoint(f.instance->num_nodes()));
  for (uint32_t j = 0; j < 3; ++j) {
    EXPECT_LE(res.value().ad_stats[j].payment,
              f.instance->budget(j) + 1e-6);
  }
}

TEST(TiGreedyTest, DeterministicInSeed) {
  auto f = MakeMedium(2, 30.0);
  auto a = RunTiCsrm(*f.instance, FastOptions());
  auto b = RunTiCsrm(*f.instance, FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().allocation.seed_sets, b.value().allocation.seed_sets);
  EXPECT_DOUBLE_EQ(a.value().total_revenue, b.value().total_revenue);
}

TEST(TiGreedyTest, SeedsChangeWithSeed) {
  auto f = MakeMedium(2, 30.0);
  TiOptions o1 = FastOptions(), o2 = FastOptions();
  o2.seed = 999;
  auto a = RunTiCsrm(*f.instance, o1);
  auto b = RunTiCsrm(*f.instance, o2);
  ASSERT_TRUE(a.ok() && b.ok());
  // Different RR samples; allocations usually differ at least somewhere.
  // (Not guaranteed in principle, but stable for this fixture.)
  EXPECT_NE(a.value().allocation.seed_sets, b.value().allocation.seed_sets);
}

TEST(TiGreedyTest, CsrmIsMoreCostEffectiveThanCarm) {
  // The cost-sensitive rule targets cheaper seeds per unit revenue. CSRM
  // may buy MORE seeds in total (the paper reports 7276 vs 4676 on DBLP),
  // so the invariant is seeding cost per unit revenue, not absolute cost.
  auto f = MakeMedium(3, 60.0, /*alpha=*/0.5);
  auto carm = RunTiCarm(*f.instance, FastOptions());
  auto csrm = RunTiCsrm(*f.instance, FastOptions());
  ASSERT_TRUE(carm.ok() && csrm.ok());
  const double carm_cost_rate = carm.value().total_seeding_cost /
                                std::max(1.0, carm.value().total_revenue);
  const double csrm_cost_rate = csrm.value().total_seeding_cost /
                                std::max(1.0, csrm.value().total_revenue);
  EXPECT_LE(csrm_cost_rate, carm_cost_rate + 0.05);
}

TEST(TiGreedyTest, WindowOneDegeneratesTowardCarmChoice) {
  auto f = MakeMedium(2, 30.0);
  TiOptions opt = FastOptions();
  opt.window = 1;
  auto res = RunTiGreedy(*f.instance, [&] {
    TiOptions o = opt;
    o.candidate_rule = CandidateRule::kCoverageCostRatio;
    o.selection_rule = SelectionRule::kMaxRate;
    return o;
  }());
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().allocation.IsDisjoint(f.instance->num_nodes()));
}

TEST(TiGreedyTest, WiderWindowNotGrosslyLessEfficient) {
  // Full window is the true CS rule; tiny window approximates CARM. The
  // greedy rule optimizes the marginal rate of each single pick, not the
  // final aggregate cost/revenue ratio, so under sampling noise the w=1 run
  // can finish a few percent ahead — the invariant worth pinning is that
  // the full window is not grossly less seeding-efficient (same slack as
  // CsrmIsMoreCostEffectiveThanCarm above).
  auto f = MakeMedium(2, 50.0, /*alpha=*/0.5);
  TiOptions w1 = FastOptions(), wfull = FastOptions();
  w1.window = 1;
  wfull.window = 0;
  auto a = RunTiCsrm(*f.instance, w1);
  auto b = RunTiCsrm(*f.instance, wfull);
  ASSERT_TRUE(a.ok() && b.ok());
  const double cost_per_rev_w1 =
      a.value().total_seeding_cost / std::max(1.0, a.value().total_revenue);
  const double cost_per_rev_full =
      b.value().total_seeding_cost / std::max(1.0, b.value().total_revenue);
  EXPECT_LE(cost_per_rev_full, cost_per_rev_w1 + 0.05);
}

TEST(TiGreedyTest, PageRankBaselinesRun) {
  auto f = MakeMedium(2, 30.0);
  auto gr = RunPageRankGr(*f.instance, FastOptions());
  auto rr = RunPageRankRr(*f.instance, FastOptions());
  ASSERT_TRUE(gr.ok());
  ASSERT_TRUE(rr.ok());
  EXPECT_TRUE(gr.value().allocation.IsDisjoint(f.instance->num_nodes()));
  EXPECT_TRUE(rr.value().allocation.IsDisjoint(f.instance->num_nodes()));
  for (uint32_t j = 0; j < 2; ++j) {
    EXPECT_LE(gr.value().ad_stats[j].payment, f.instance->budget(j) + 1e-6);
    EXPECT_LE(rr.value().ad_stats[j].payment, f.instance->budget(j) + 1e-6);
  }
}

TEST(TiGreedyTest, RoundRobinAlternatesAds) {
  auto f = MakeMedium(2, 30.0);
  auto rr = RunPageRankRr(*f.instance, FastOptions());
  ASSERT_TRUE(rr.ok());
  const auto& sets = rr.value().allocation.seed_sets;
  // Round-robin with equal budgets keeps seed counts within 1 of each
  // other (until one ad's budget is exhausted).
  if (!sets[0].empty() && !sets[1].empty()) {
    EXPECT_LE(std::abs(static_cast<int>(sets[0].size()) -
                       static_cast<int>(sets[1].size())),
              2);
  }
}

TEST(TiGreedyTest, LatentSeedSizeGrows) {
  auto f = MakeMedium(1, 200.0);
  auto res = RunTiCarm(*f.instance, FastOptions());
  ASSERT_TRUE(res.ok());
  const auto& st = res.value().ad_stats[0];
  // Started at 1; a 200-budget campaign needs more than one seed, and the
  // Eq. 10 revision must keep s̃ at least one step ahead of |S|.
  // (Sample growth events are not guaranteed HERE because FastOptions'
  // theta_cap already saturates θ(1) on this fixture — the cap-saturated
  // idle path, observable via theta_cap_hits/idle_growth_revisions. The
  // growth-engaged path is ctest-enforced in
  // advertiser_engine_test/GrowthRegimeTest under the same default
  // influence with headroom below the cap.)
  EXPECT_GT(st.seeds, 1u);
  EXPECT_GE(st.latent_seed_size, st.seeds);
  EXPECT_GT(st.theta, 0u);
}

TEST(TiGreedyTest, RejectsBadEpsilon) {
  auto f = MakeMedium(1, 10.0);
  TiOptions opt = FastOptions();
  opt.epsilon = 0.0;
  EXPECT_FALSE(RunTiGreedy(*f.instance, opt).ok());
  opt.epsilon = 1.5;
  EXPECT_FALSE(RunTiGreedy(*f.instance, opt).ok());
  // NaN fails every comparison; it used to pass and size θ at 1.
  opt.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(RunTiGreedy(*f.instance, opt).ok());
}

TEST(TiGreedyTest, RejectsZeroThetaCap) {
  // θ capped at 0 would sample nothing and select nothing, yet "succeed";
  // a cap past 2^32 - 1 would let set ids wrap in the uint32_t index.
  auto f = MakeMedium(1, 10.0);
  TiOptions opt = FastOptions();
  for (const uint64_t cap : {uint64_t{0}, uint64_t{1} << 32}) {
    opt.theta_cap = cap;
    auto res = RunTiGreedy(*f.instance, opt);
    ASSERT_FALSE(res.ok()) << cap;
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument) << cap;
  }
  opt.theta_cap = 1;
  EXPECT_TRUE(RunTiGreedy(*f.instance, opt).ok());
}

TEST(TiGreedyTest, TinyBudgetGetsFewSeedsButStaysFeasible) {
  auto f = MakeMedium(2, 3.0);
  auto res = RunTiCsrm(*f.instance, FastOptions());
  ASSERT_TRUE(res.ok());
  for (uint32_t j = 0; j < 2; ++j) {
    EXPECT_LE(res.value().ad_stats[j].payment, 3.0 + 1e-6);
  }
}

TEST(TiGreedyTest, RrRevenueTracksMcEvaluation) {
  // The RR-internal revenue estimate should agree with an independent MC
  // evaluation of the final allocation within a loose tolerance.
  auto f = MakeMedium(1, 60.0);
  auto res = RunTiCarm(*f.instance, FastOptions());
  ASSERT_TRUE(res.ok());
  McSpreadOracle oracle(*f.instance, 3000, 123);
  auto eval = EvaluateAllocation(*f.instance, res.value().allocation, oracle);
  ASSERT_TRUE(eval.feasible || eval.total_revenue > 0.0);
  EXPECT_NEAR(eval.total_revenue, res.value().total_revenue,
              0.25 * std::max(1.0, res.value().total_revenue));
}

// Rule-matrix sweep: every (candidate, selection) combination yields a
// feasible, disjoint allocation.
class RuleMatrix
    : public ::testing::TestWithParam<
          std::tuple<CandidateRule, SelectionRule>> {};

TEST_P(RuleMatrix, FeasibleAndDisjoint) {
  auto [cand, sel] = GetParam();
  auto f = MakeMedium(3, 25.0);
  TiOptions opt = FastOptions();
  opt.candidate_rule = cand;
  opt.selection_rule = sel;
  auto res = RunTiGreedy(*f.instance, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().allocation.IsDisjoint(f.instance->num_nodes()));
  for (uint32_t j = 0; j < 3; ++j) {
    EXPECT_LE(res.value().ad_stats[j].payment,
              f.instance->budget(j) + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RuleMatrix,
    ::testing::Combine(
        ::testing::Values(CandidateRule::kCoverage,
                          CandidateRule::kCoverageCostRatio,
                          CandidateRule::kPageRank),
        ::testing::Values(SelectionRule::kMaxMarginalRevenue,
                          SelectionRule::kMaxRate,
                          SelectionRule::kRoundRobin)));

}  // namespace
}  // namespace isa::core
