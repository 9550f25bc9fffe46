#include <gtest/gtest.h>

#include "topic/tic_model.h"
#include "topic/topic_distribution.h"
#include "tests/test_util.h"

namespace isa::topic {
namespace {

TEST(TopicDistributionTest, CreateValidatesSimplex) {
  EXPECT_TRUE(TopicDistribution::Create({0.3, 0.7}).ok());
  EXPECT_FALSE(TopicDistribution::Create({0.3, 0.3}).ok());   // sums to 0.6
  EXPECT_FALSE(TopicDistribution::Create({1.3, -0.3}).ok());  // negative
  EXPECT_FALSE(TopicDistribution::Create({}).ok());
}

TEST(TopicDistributionTest, ConcentratedMatchesPaperSetup) {
  // 0.91 on one topic, 0.01 on the other nine (paper §5 FLIXSTER setup).
  auto d = TopicDistribution::Concentrated(10, 3, 0.91);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value().weight(3), 0.91, 1e-12);
  EXPECT_NEAR(d.value().weight(0), 0.01, 1e-12);
  double sum = 0;
  for (uint32_t z = 0; z < 10; ++z) sum += d.value().weight(z);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(TopicDistributionTest, ConcentratedRejectsBadArgs) {
  EXPECT_FALSE(TopicDistribution::Concentrated(5, 9, 0.9).ok());
  EXPECT_FALSE(TopicDistribution::Concentrated(5, 0, 1.5).ok());
  EXPECT_FALSE(TopicDistribution::Concentrated(1, 0, 0.5).ok());
  EXPECT_TRUE(TopicDistribution::Concentrated(1, 0, 1.0).ok());
}

TEST(TopicDistributionTest, UniformWeights) {
  auto d = TopicDistribution::Uniform(4);
  for (uint32_t z = 0; z < 4; ++z) EXPECT_NEAR(d.weight(z), 0.25, 1e-12);
}

TEST(TopicDistributionTest, CosineSimilarity) {
  auto a = TopicDistribution::Concentrated(10, 0, 0.91).value();
  auto b = TopicDistribution::Concentrated(10, 0, 0.91).value();
  auto c = TopicDistribution::Concentrated(10, 5, 0.91).value();
  EXPECT_NEAR(a.CosineSimilarity(b), 1.0, 1e-9);   // pure competition
  EXPECT_LT(a.CosineSimilarity(c), 0.1);           // different topics
}

TEST(MarketplaceTest, PairsShareTopicsDistinctAcrossPairs) {
  auto mk = MakePureCompetitionMarketplace(10, 10);
  ASSERT_TRUE(mk.ok());
  const auto& ds = mk.value();
  ASSERT_EQ(ds.size(), 10u);
  for (uint32_t i = 0; i < 10; i += 2) {
    EXPECT_NEAR(ds[i].CosineSimilarity(ds[i + 1]), 1.0, 1e-9);
  }
  EXPECT_LT(ds[0].CosineSimilarity(ds[2]), 0.1);
  EXPECT_LT(ds[0].CosineSimilarity(ds[9]), 0.1);
}

TEST(MarketplaceTest, RejectsTooFewTopics) {
  EXPECT_FALSE(MakePureCompetitionMarketplace(10, 3).ok());
  EXPECT_TRUE(MakePureCompetitionMarketplace(10, 5).ok());
}

TEST(MarketplaceTest, OddAdCount) {
  auto mk = MakePureCompetitionMarketplace(5, 4);
  ASSERT_TRUE(mk.ok());
  EXPECT_EQ(mk.value().size(), 5u);
}

// ---------- TopicEdgeProbabilities ----------

TEST(TopicEdgeProbabilitiesTest, CreateValidates) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  EXPECT_FALSE(TopicEdgeProbabilities::Create(g, {}).ok());
  EXPECT_FALSE(TopicEdgeProbabilities::Create(g, {{0.5}}).ok());  // size
  EXPECT_FALSE(
      TopicEdgeProbabilities::Create(g, {{0.5, 1.5}}).ok());      // range
  EXPECT_TRUE(TopicEdgeProbabilities::Create(g, {{0.5, 0.25}}).ok());
}

// ---------- AdProbabilities (Eq. 1) ----------

TEST(AdProbabilitiesTest, MixIsWeightedAverage) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  auto topics =
      TopicEdgeProbabilities::Create(g, {{0.2, 0.4}, {0.8, 0.0}}).value();
  auto gamma = TopicDistribution::Create({0.25, 0.75}).value();
  auto mixed = AdProbabilities::Mix(topics, gamma);
  ASSERT_TRUE(mixed.ok());
  EXPECT_NEAR(mixed.value().prob(0), 0.25 * 0.2 + 0.75 * 0.8, 1e-12);
  EXPECT_NEAR(mixed.value().prob(1), 0.25 * 0.4, 1e-12);
}

TEST(AdProbabilitiesTest, SingleTopicIsIdentity) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  auto topics = TopicEdgeProbabilities::Create(g, {{0.3, 0.6}}).value();
  auto mixed =
      AdProbabilities::Mix(topics, TopicDistribution::Uniform(1));
  ASSERT_TRUE(mixed.ok());
  EXPECT_DOUBLE_EQ(mixed.value().prob(0), 0.3);
  EXPECT_DOUBLE_EQ(mixed.value().prob(1), 0.6);
}

TEST(AdProbabilitiesTest, RejectsTopicCountMismatch) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  auto topics = TopicEdgeProbabilities::Create(g, {{0.3, 0.6}}).value();
  auto gamma = TopicDistribution::Create({0.5, 0.5}).value();
  EXPECT_FALSE(AdProbabilities::Mix(topics, gamma).ok());
}

TEST(AdProbabilitiesTest, PureCompetitionAdsShareProbabilities) {
  auto g = test::MustGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  auto topics =
      test::RegimeTopics(g, graph::WeightingRegime::kTopicMix, 10, 0.0, 3)
          .value();
  auto ds = MakePureCompetitionMarketplace(4, 10).value();
  auto p0 = AdProbabilities::Mix(topics, ds[0]).value();
  auto p1 = AdProbabilities::Mix(topics, ds[1]).value();
  auto p2 = AdProbabilities::Mix(topics, ds[2]).value();
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR(p0.prob(e), p1.prob(e), 1e-12);  // same pair -> identical
  }
  bool any_diff = false;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    any_diff |= std::abs(p0.prob(e) - p2.prob(e)) > 1e-9;
  }
  EXPECT_TRUE(any_diff);  // different pair -> different probabilities
}

}  // namespace
}  // namespace isa::topic
