// Tests for shared RR stores: multiple advertiser views over one physical
// sample (TiOptions::share_samples — our extension answering the paper's
// open problem (i) on TI-CSRM memory).

#include <gtest/gtest.h>

#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa {
namespace {

TEST(SharedStoreTest, ViewsAdoptIndependentPrefixes) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 5);
  auto store = std::make_shared<rrset::RrStore>(3);
  rrset::RrCollection view_a(store), view_b(store);
  view_a.AddSets(sampler, 100, {});
  view_b.AddSets(sampler, 40, {});
  EXPECT_EQ(view_a.total_sets(), 100u);
  EXPECT_EQ(view_b.total_sets(), 40u);
  // Store holds the max prefix; view B reuses A's first 40 sets.
  EXPECT_EQ(store->num_sets(), 100u);
  // With p = 1 node 0 appears in every set.
  EXPECT_EQ(view_a.CoverageOf(0), 100u);
  EXPECT_EQ(view_b.CoverageOf(0), 40u);
}

TEST(SharedStoreTest, RemovalIsPerView) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 6);
  auto store = std::make_shared<rrset::RrStore>(3);
  rrset::RrCollection view_a(store), view_b(store);
  view_a.AddSets(sampler, 50, {});
  view_b.AddSets(sampler, 50, {});
  view_a.RemoveCoveredBy(0);
  EXPECT_DOUBLE_EQ(view_a.covered_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(view_b.covered_fraction(), 0.0);  // untouched
  EXPECT_EQ(view_b.CoverageOf(0), 50u);
}

TEST(SharedStoreTest, RemovalStopsAtAdoptedPrefix) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 7);
  auto store = std::make_shared<rrset::RrStore>(3);
  rrset::RrCollection big(store), small(store);
  big.AddSets(sampler, 200, {});
  small.AddSets(sampler, 30, {});
  EXPECT_EQ(small.RemoveCoveredBy(0), 30u);  // not 200
}

TEST(SharedStoreTest, SharedVsPrivateSemanticsMatch) {
  // The same adopted prefix must produce identical coverage state whether
  // the store is private or shared.
  auto g = test::MustGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  std::vector<double> probs(g.num_edges(), 0.5);
  auto s1 = test::InlineSampler(g, probs, 9);
  auto s2 = test::InlineSampler(g, probs, 9);
  rrset::RrCollection priv(g.num_nodes());
  priv.AddSets(s1, 500, {});
  auto store = std::make_shared<rrset::RrStore>(g.num_nodes());
  rrset::RrCollection shared(store);
  shared.AddSets(s2, 500, {});
  for (graph::NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(priv.CoverageOf(v), shared.CoverageOf(v)) << "node " << v;
  }
  EXPECT_EQ(priv.RemoveCoveredBy(0), shared.RemoveCoveredBy(0));
  EXPECT_DOUBLE_EQ(priv.covered_fraction(), shared.covered_fraction());
}

TEST(SharedStoreTest, ViewMemoryExcludesStore) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  auto sampler = test::InlineSampler(g, probs, 8);
  auto store = std::make_shared<rrset::RrStore>(3);
  rrset::RrCollection view(store);
  view.AddSets(sampler, 100, {});
  EXPECT_LT(view.MemoryBytes(/*include_store=*/false),
            view.MemoryBytes(/*include_store=*/true));
  EXPECT_GT(store->MemoryBytes(), 0u);
}

// --- Driver-level sharing ---

struct Fixture {
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<topic::TopicEdgeProbabilities> topics;
  std::unique_ptr<core::RmInstance> instance;
};

Fixture MakePureCompetition(uint32_t h) {
  Fixture f;
  auto g = graph::GenerateBarabasiAlbert(
      {.num_nodes = 300, .edges_per_node = 3, .seed = 21});
  ISA_CHECK(g.ok());
  f.graph = std::make_unique<graph::Graph>(std::move(g).value());
  auto topics =
      test::RegimeTopics(*f.graph, graph::WeightingRegime::kWeightedCascade);
  ISA_CHECK(topics.ok());
  f.topics = std::make_unique<topic::TopicEdgeProbabilities>(
      std::move(topics).value());
  std::vector<double> cost(f.graph->num_nodes());
  for (graph::NodeId u = 0; u < f.graph->num_nodes(); ++u) {
    cost[u] = 0.2 * (1 + f.graph->OutDegree(u));
  }
  core::AdvertiserSpec ad;
  ad.cpe = 1.0;
  ad.budget = 30.0;
  ad.gamma = topic::TopicDistribution::Uniform(1);
  // All ads share the single topic: one shared store suffices.
  auto inst = core::RmInstance::Create(
      *f.graph, *f.topics, std::vector<core::AdvertiserSpec>(h, ad),
      std::vector<std::vector<double>>(h, cost));
  ISA_CHECK(inst.ok());
  f.instance = std::make_unique<core::RmInstance>(std::move(inst).value());
  return f;
}

TEST(SharedStoreTest, SharingShrinksMemoryOnPureCompetition) {
  auto f = MakePureCompetition(6);
  core::TiOptions opt;
  opt.epsilon = 0.3;
  opt.theta_cap = 20'000;
  opt.seed = 11;
  auto solo = core::RunTiCsrm(*f.instance, opt);
  opt.share_samples = true;
  auto shared = core::RunTiCsrm(*f.instance, opt);
  ASSERT_TRUE(solo.ok() && shared.ok());
  // Six identical ads -> one store instead of six.
  EXPECT_LT(shared.value().total_rr_memory_bytes,
            solo.value().total_rr_memory_bytes / 2);
  // Allocations remain feasible and disjoint.
  EXPECT_TRUE(
      shared.value().allocation.IsDisjoint(f.instance->num_nodes()));
  for (uint32_t j = 0; j < 6; ++j) {
    EXPECT_LE(shared.value().ad_stats[j].payment, 30.0 + 1e-6);
  }
  // Same estimator family: revenue in the same ballpark.
  EXPECT_NEAR(shared.value().total_revenue, solo.value().total_revenue,
              0.3 * std::max(1.0, solo.value().total_revenue));
}

TEST(SharedStoreTest, SharingDeterministic) {
  auto f = MakePureCompetition(4);
  core::TiOptions opt;
  opt.epsilon = 0.3;
  opt.theta_cap = 10'000;
  opt.seed = 13;
  opt.share_samples = true;
  auto a = core::RunTiCsrm(*f.instance, opt);
  auto b = core::RunTiCsrm(*f.instance, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().allocation.seed_sets, b.value().allocation.seed_sets);
}

// One shared store is charged once, to the first ad viewing it: ad 0
// carries every store counter at the run total, the other ads carry 0.
TEST(SharedStoreTest, SharedStoreChargedOnceToFirstAd) {
  auto f = MakePureCompetition(3);
  core::TiOptions opt;
  opt.epsilon = 0.3;
  opt.theta_cap = 20'000;
  opt.seed = 11;
  opt.share_samples = true;
  opt.rr_memory_budget_bytes = 64 << 10;
  opt.spill_chunk_bytes = 16 << 10;
  auto budgeted = core::RunTiCsrm(*f.instance, opt);
  ASSERT_TRUE(budgeted.ok());
  const core::TiResult& r = budgeted.value();
  ASSERT_GT(r.total_rr_index_bytes, 0u);
  ASSERT_GT(r.total_spilled_bytes, 0u);
  ASSERT_GT(r.total_chunks_read, 0u);
  const core::TiAdStats& leader = r.ad_stats[0];
  EXPECT_EQ(leader.rr_index_bytes, r.total_rr_index_bytes);
  EXPECT_EQ(leader.spilled_bytes, r.total_spilled_bytes);
  EXPECT_EQ(leader.spill_chunks, r.total_spill_chunks);
  EXPECT_EQ(leader.chunks_read, r.total_chunks_read);
  EXPECT_GT(leader.rr_resident_peak_bytes, 0u);
  for (uint32_t j = 1; j < 3; ++j) {
    const core::TiAdStats& st = r.ad_stats[j];
    EXPECT_EQ(st.rr_index_bytes, 0u) << j;
    EXPECT_EQ(st.spilled_bytes, 0u) << j;
    EXPECT_EQ(st.spill_chunks, 0u) << j;
    EXPECT_EQ(st.chunks_read, 0u) << j;
    EXPECT_EQ(st.rr_resident_peak_bytes, 0u) << j;
  }

  opt.rr_memory_budget_bytes = 0;
  auto unbudgeted = core::RunTiCsrm(*f.instance, opt);
  ASSERT_TRUE(unbudgeted.ok());
  EXPECT_EQ(unbudgeted.value().total_spilled_bytes, 0u);
  for (const core::TiAdStats& st : unbudgeted.value().ad_stats) {
    EXPECT_EQ(st.rr_resident_peak_bytes, 0u);
  }
}

TEST(SharedStoreTest, DistinctProbabilitiesGetDistinctStores) {
  // Two ads with different topic mixes must NOT share a store; verify via
  // memory: sharing enabled but nothing shareable -> same footprint class
  // as solo.
  auto g = graph::GenerateBarabasiAlbert(
      {.num_nodes = 200, .edges_per_node = 3, .seed = 22});
  ASSERT_TRUE(g.ok());
  auto topics = test::RegimeTopics(g.value(), graph::WeightingRegime::kTopicMix,
                                   2, 0.0, 5)
                    .value();
  std::vector<double> cost(g.value().num_nodes(), 1.0);
  std::vector<core::AdvertiserSpec> ads(2);
  ads[0].cpe = ads[1].cpe = 1.0;
  ads[0].budget = ads[1].budget = 20.0;
  ads[0].gamma = topic::TopicDistribution::Concentrated(2, 0, 0.91).value();
  ads[1].gamma = topic::TopicDistribution::Concentrated(2, 1, 0.91).value();
  auto inst =
      core::RmInstance::Create(g.value(), topics, ads, {cost, cost}).value();
  core::TiOptions opt;
  opt.epsilon = 0.3;
  opt.theta_cap = 5'000;
  opt.share_samples = true;
  auto res = core::RunTiCsrm(inst, opt);
  ASSERT_TRUE(res.ok());
  // Both ads carry non-trivial store bytes (two separate stores counted).
  EXPECT_GT(res.value().ad_stats[0].rr_memory_bytes, 0u);
  EXPECT_GT(res.value().ad_stats[1].rr_memory_bytes,
            res.value().ad_stats[0].rr_memory_bytes / 100);
}

}  // namespace
}  // namespace isa
