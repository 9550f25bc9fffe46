#include <gtest/gtest.h>

#include <algorithm>

#include "eval/datasets.h"
#include "eval/workload.h"
#include "tests/test_util.h"

namespace isa::eval {
namespace {

using test::LoadDataset;

WorkloadOptions SmallOptions() {
  WorkloadOptions opt;
  opt.num_advertisers = 4;
  opt.budget_min = 50;
  opt.budget_max = 100;
  opt.spread_source = SpreadSource::kOutDegreeProxy;
  return opt;
}

TEST(DatasetTest, AllStandInsBuildAtTinyScale) {
  for (const std::string& name : graph::DatasetCatalog::Names()) {
    auto ds = LoadDataset(name, /*scale=*/0.02, /*seed=*/5);
    ASSERT_TRUE(ds.ok()) << name << ": " << ds.status().ToString();
    EXPECT_EQ(ds.value()->name, name);
    EXPECT_GT(ds.value()->graph.num_nodes(), 0u);
    EXPECT_GT(ds.value()->graph.num_edges(), 0u);
    EXPECT_EQ(ds.value()->topics.num_edges(),
              ds.value()->graph.num_edges());
    EXPECT_EQ(ds.value()->topics.num_topics(), ds.value()->num_topics);
  }
}

TEST(DatasetTest, FlixsterHasTenTopics) {
  auto ds = LoadDataset("flixster", 0.02, 5);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value()->num_topics, 10u);
}

TEST(DatasetTest, DeterministicInSeed) {
  auto a = LoadDataset("soc-epinions1", 0.02, 9);
  auto b = LoadDataset("soc-epinions1", 0.02, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value()->graph.num_edges(), b.value()->graph.num_edges());
  for (graph::NodeId v = 0; v < a.value()->graph.num_nodes(); ++v) {
    const auto na = a.value()->graph.OutNeighbors(v);
    const auto nb = b.value()->graph.OutNeighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "node " << v;
  }
}

TEST(DatasetTest, RejectsBadScale) {
  EXPECT_FALSE(LoadDataset("com-dblp", 0.0, 2017).ok());
  EXPECT_FALSE(LoadDataset("com-dblp", 1.5, 2017).ok());
}

TEST(MakeAdvertisersTest, BudgetsAndCpesInRange) {
  auto ds = LoadDataset("soc-epinions1", 0.02, 5);
  ASSERT_TRUE(ds.ok());
  auto opt = SmallOptions();
  auto ads = MakeAdvertisers(*ds.value(), opt);
  ASSERT_TRUE(ads.ok());
  ASSERT_EQ(ads.value().size(), 4u);
  for (const auto& ad : ads.value()) {
    EXPECT_GE(ad.budget, opt.budget_min);
    EXPECT_LE(ad.budget, opt.budget_max);
    EXPECT_GE(ad.cpe, opt.cpe_min);
    EXPECT_LE(ad.cpe, opt.cpe_max);
    EXPECT_EQ(ad.gamma.num_topics(), 1u);
  }
}

TEST(MakeAdvertisersTest, MultiTopicMarketplacePairs) {
  auto ds = LoadDataset("flixster", 0.02, 5);
  ASSERT_TRUE(ds.ok());
  auto opt = SmallOptions();
  opt.num_advertisers = 6;
  auto ads = MakeAdvertisers(*ds.value(), opt);
  ASSERT_TRUE(ads.ok());
  EXPECT_NEAR(ads.value()[0].gamma.CosineSimilarity(ads.value()[1].gamma),
              1.0, 1e-9);
  EXPECT_LT(ads.value()[0].gamma.CosineSimilarity(ads.value()[2].gamma),
            0.1);
}

TEST(MakeAdvertisersTest, RejectsBadRanges) {
  auto ds = LoadDataset("soc-epinions1", 0.02, 5);
  ASSERT_TRUE(ds.ok());
  WorkloadOptions opt = SmallOptions();
  opt.budget_min = -1;
  EXPECT_FALSE(MakeAdvertisers(*ds.value(), opt).ok());
  opt = SmallOptions();
  opt.cpe_max = 0.5;  // < cpe_min
  EXPECT_FALSE(MakeAdvertisers(*ds.value(), opt).ok());
  opt = SmallOptions();
  opt.num_advertisers = 0;
  EXPECT_FALSE(MakeAdvertisers(*ds.value(), opt).ok());
}

TEST(SingletonSpreadsTest, ProxySharedAcrossAds) {
  auto ds = LoadDataset("soc-epinions1", 0.02, 5);
  ASSERT_TRUE(ds.ok());
  auto opt = SmallOptions();
  auto ads = MakeAdvertisers(*ds.value(), opt).value();
  auto spreads = ComputeSingletonSpreads(*ds.value(), ads, opt);
  ASSERT_TRUE(spreads.ok());
  ASSERT_EQ(spreads.value().size(), ads.size());
  EXPECT_EQ(spreads.value()[0], spreads.value()[1]);  // proxy is ad-agnostic
}

TEST(SingletonSpreadsTest, RrEstimateProducesPerAdValues) {
  auto ds = LoadDataset("flixster", 0.02, 5);
  ASSERT_TRUE(ds.ok());
  auto opt = SmallOptions();
  opt.num_advertisers = 4;
  opt.spread_source = SpreadSource::kRrEstimate;
  opt.spread_effort = 3000;
  auto ads = MakeAdvertisers(*ds.value(), opt).value();
  auto spreads = ComputeSingletonSpreads(*ds.value(), ads, opt);
  ASSERT_TRUE(spreads.ok());
  for (const auto& per_ad : spreads.value()) {
    ASSERT_EQ(per_ad.size(), ds.value()->graph.num_nodes());
    for (double v : per_ad) EXPECT_GE(v, 1.0);
  }
}

TEST(BuildExperimentTest, EndToEndAssembly) {
  auto ds = LoadDataset("soc-epinions1", 0.02, 5);
  ASSERT_TRUE(ds.ok());
  auto setup = BuildExperiment(std::move(ds).value(), SmallOptions());
  ASSERT_TRUE(setup.ok());
  EXPECT_EQ(setup.value().instance->num_ads(), 4u);
  EXPECT_EQ(setup.value().instance->num_nodes(),
            setup.value().dataset->graph.num_nodes());
}

TEST(BuildExperimentTest, RebuildSwapsIncentives) {
  auto ds = LoadDataset("soc-epinions1", 0.02, 5);
  ASSERT_TRUE(ds.ok());
  auto setup = BuildExperiment(std::move(ds).value(), SmallOptions());
  ASSERT_TRUE(setup.ok());
  ExperimentSetup s = std::move(setup).value();
  const double before = s.instance->incentive(0, 0);
  ASSERT_TRUE(RebuildInstanceWithIncentives(
                  s, core::IncentiveModel::kSuperlinear, 0.001)
                  .ok());
  const double after = s.instance->incentive(0, 0);
  EXPECT_NE(before, after);
}

TEST(BuildExperimentTest, NullDatasetRejected) {
  EXPECT_FALSE(BuildExperiment(nullptr, SmallOptions()).ok());
}

TEST(BenchScaleTest, DefaultsToOne) {
  unsetenv("ISA_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 1.0);
  setenv("ISA_BENCH_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 0.25);
  setenv("ISA_BENCH_SCALE", "junk", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 1.0);
  setenv("ISA_BENCH_SCALE", "7.0", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 1.0);  // clamped
  unsetenv("ISA_BENCH_SCALE");
}

}  // namespace
}  // namespace isa::eval
