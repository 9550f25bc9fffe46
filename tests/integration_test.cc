// End-to-end pipeline tests: dataset -> workload -> all four algorithms ->
// independent MC evaluation. These mirror what the benchmark harness does,
// at a tiny scale.

#include <gtest/gtest.h>

#include "core/spread_oracle.h"
#include "core/ti_greedy.h"
#include "eval/datasets.h"
#include "eval/workload.h"
#include "tests/test_util.h"

namespace isa {
namespace {

eval::ExperimentSetup MakeSetup(std::string_view dataset,
                                core::IncentiveModel model, double alpha) {
  auto ds = test::LoadDataset(dataset, /*scale=*/0.02, /*seed=*/5);
  EXPECT_TRUE(ds.ok());
  eval::WorkloadOptions opt;
  opt.num_advertisers = 4;
  opt.budget_min = 60;
  opt.budget_max = 120;
  opt.incentive_model = model;
  opt.alpha = alpha;
  opt.spread_source = eval::SpreadSource::kRrEstimate;
  opt.spread_effort = 5000;
  auto setup = eval::BuildExperiment(std::move(ds).value(), opt);
  EXPECT_TRUE(setup.ok()) << setup.status().ToString();
  return std::move(setup).value();
}

core::TiOptions FastTi() {
  core::TiOptions opt;
  opt.epsilon = 0.3;
  opt.theta_cap = 20'000;
  opt.seed = 31;
  return opt;
}

TEST(IntegrationTest, AllFourAlgorithmsProduceFeasibleAllocations) {
  auto setup = MakeSetup("soc-epinions1",
                         core::IncentiveModel::kLinear, 0.2);
  const core::RmInstance& inst = *setup.instance;

  auto carm = core::RunTiCarm(inst, FastTi());
  auto csrm = core::RunTiCsrm(inst, FastTi());
  auto gr = core::RunPageRankGr(inst, FastTi());
  auto rr = core::RunPageRankRr(inst, FastTi());
  for (const auto* res : {&carm, &csrm, &gr, &rr}) {
    ASSERT_TRUE(res->ok()) << res->status().ToString();
    const core::TiResult& r = res->value();
    EXPECT_TRUE(r.allocation.IsDisjoint(inst.num_nodes()));
    for (uint32_t j = 0; j < inst.num_ads(); ++j) {
      EXPECT_LE(r.ad_stats[j].payment, inst.budget(j) + 1e-6);
    }
  }
}

TEST(IntegrationTest, CsrmBeatsOrMatchesCarmOnLinearIncentives) {
  // The paper's headline quality finding (Fig. 2): under skewed (linear)
  // incentives the cost-sensitive algorithm achieves at least as much
  // revenue. We assert a softened version robust to estimation noise.
  auto setup = MakeSetup("soc-epinions1",
                         core::IncentiveModel::kLinear, 0.5);
  auto carm = core::RunTiCarm(*setup.instance, FastTi());
  auto csrm = core::RunTiCsrm(*setup.instance, FastTi());
  ASSERT_TRUE(carm.ok() && csrm.ok());
  core::McSpreadOracle oracle(*setup.instance, 2000, 71);
  auto eval_carm =
      core::EvaluateAllocation(*setup.instance, carm.value().allocation,
                               oracle);
  auto eval_csrm =
      core::EvaluateAllocation(*setup.instance, csrm.value().allocation,
                               oracle);
  EXPECT_GE(eval_csrm.total_revenue, 0.9 * eval_carm.total_revenue);
}

TEST(IntegrationTest, ConstantIncentivesEqualizeCarmAndCsrm) {
  // Paper: "for the constant incentive model, the advantage of being
  // cost-sensitive is nullified, hence TI-CARM and TI-CSRM end up
  // performing identically".
  auto setup = MakeSetup("soc-epinions1",
                         core::IncentiveModel::kConstant, 0.2);
  auto carm = core::RunTiCarm(*setup.instance, FastTi());
  auto csrm = core::RunTiCsrm(*setup.instance, FastTi());
  ASSERT_TRUE(carm.ok() && csrm.ok());
  EXPECT_NEAR(csrm.value().total_revenue, carm.value().total_revenue,
              0.15 * std::max(1.0, carm.value().total_revenue));
}

TEST(IntegrationTest, HigherAlphaNeverHelpsRevenue) {
  // Raising every incentive (alpha) shrinks the budget left for
  // engagements; revenue should not increase materially.
  auto setup = MakeSetup("soc-epinions1",
                         core::IncentiveModel::kLinear, 0.1);
  auto cheap = core::RunTiCsrm(*setup.instance, FastTi());
  ASSERT_TRUE(cheap.ok());
  ASSERT_TRUE(eval::RebuildInstanceWithIncentives(
                  setup, core::IncentiveModel::kLinear, 1.5)
                  .ok());
  auto pricey = core::RunTiCsrm(*setup.instance, FastTi());
  ASSERT_TRUE(pricey.ok());
  EXPECT_LE(pricey.value().total_revenue,
            1.1 * cheap.value().total_revenue + 5.0);
}

TEST(IntegrationTest, TicMultiTopicPipeline) {
  auto setup = MakeSetup("flixster",
                         core::IncentiveModel::kSublinear, 1.0);
  auto csrm = core::RunTiCsrm(*setup.instance, FastTi());
  ASSERT_TRUE(csrm.ok());
  EXPECT_TRUE(
      csrm.value().allocation.IsDisjoint(setup.instance->num_nodes()));
  EXPECT_GT(csrm.value().total_revenue, 0.0);
}

TEST(IntegrationTest, MoreAdvertisersMoreTotalWork) {
  auto ds2 = test::LoadDataset("com-dblp", 0.02, 5);
  ASSERT_TRUE(ds2.ok());
  eval::WorkloadOptions opt;
  opt.num_advertisers = 2;
  opt.budget_min = opt.budget_max = 50;
  opt.spread_source = eval::SpreadSource::kOutDegreeProxy;
  auto setup2 = eval::BuildExperiment(std::move(ds2).value(), opt);
  ASSERT_TRUE(setup2.ok());

  auto ds6 = test::LoadDataset("com-dblp", 0.02, 5);
  ASSERT_TRUE(ds6.ok());
  opt.num_advertisers = 6;
  auto setup6 = eval::BuildExperiment(std::move(ds6).value(), opt);
  ASSERT_TRUE(setup6.ok());

  auto r2 = core::RunTiCarm(*setup2.value().instance, FastTi());
  auto r6 = core::RunTiCarm(*setup6.value().instance, FastTi());
  ASSERT_TRUE(r2.ok() && r6.ok());
  // More advertisers -> more RR samples overall (Table 3's memory trend).
  EXPECT_GT(r6.value().total_theta, r2.value().total_theta);
  EXPECT_GT(r6.value().total_rr_memory_bytes,
            r2.value().total_rr_memory_bytes);
}

}  // namespace
}  // namespace isa
