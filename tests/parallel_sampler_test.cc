// Determinism and thread-safety of the parallel RR-set sampling engine
// (rrset/parallel_sampler.h): a fixed seed must yield bit-identical stores
// and bit-identical TI-CSRM allocations at any worker count.

#include "rrset/parallel_sampler.h"

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"
#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_sizer.h"
#include "rrset/singleton_estimator.h"
#include "rrset/spill_file.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa {
namespace {

using graph::Graph;
using rrset::ParallelSampler;
using rrset::ParallelSamplerOptions;
using rrset::RrStore;

Graph MakeBaGraph(graph::NodeId n = 300) {
  graph::BarabasiAlbertOptions opts;
  opts.num_nodes = n;
  opts.edges_per_node = 3;
  opts.seed = 9;
  auto g = graph::GenerateBarabasiAlbert(opts);
  ISA_CHECK(g.ok());
  return std::move(g).value();
}

ParallelSampler MakeSampler(const Graph& g, std::span<const double> probs,
                            uint32_t threads, uint64_t seed = 123,
                            uint64_t min_sets_per_thread = 1) {
  ParallelSamplerOptions opts;
  opts.num_threads = threads;
  opts.pool = test::SharedPool(threads);
  opts.min_sets_per_thread = min_sets_per_thread;
  return ParallelSampler(g, probs, rrset::DiffusionModel::kIndependentCascade,
                         seed, opts);
}

void ExpectStoresIdentical(const RrStore& a, const RrStore& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  for (uint64_t r = 0; r < a.num_sets(); ++r) {
    auto ma = a.SetMembers(r);
    auto mb = b.SetMembers(r);
    ASSERT_EQ(ma.size(), mb.size()) << "set " << r;
    for (size_t k = 0; k < ma.size(); ++k) {
      ASSERT_EQ(ma[k], mb[k]) << "set " << r << " member " << k;
    }
  }
}

TEST(ParallelSamplerTest, StoreBitIdenticalAcrossThreadCounts) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.1);
  constexpr uint64_t kSets = 4000;

  RrStore reference(g.num_nodes());
  MakeSampler(g, probs, /*threads=*/1).SampleAppend(reference, kSets);
  EXPECT_EQ(reference.num_sets(), kSets);

  for (uint32_t threads : {2u, 8u}) {
    RrStore store(g.num_nodes());
    MakeSampler(g, probs, threads).SampleAppend(store, kSets);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ExpectStoresIdentical(reference, store);
  }
}

TEST(ParallelSamplerTest, IncrementalGrowthMatchesOneBatch) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.1);

  RrStore one_batch(g.num_nodes());
  MakeSampler(g, probs, /*threads=*/4).SampleAppend(one_batch, 3000);

  // Growing in uneven increments (as Algorithm 2's θ revisions do) must
  // continue the per-id substream sequence exactly.
  RrStore grown(g.num_nodes());
  ParallelSampler sampler = MakeSampler(g, probs, /*threads=*/3);
  for (uint64_t inc : {1ull, 7ull, 992ull, 1500ull, 500ull}) {
    sampler.SampleAppend(grown, inc);
  }
  ExpectStoresIdentical(one_batch, grown);
}

TEST(ParallelSamplerTest, CollectionAddSetsAdoptsParallelSamples) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.1);

  rrset::RrCollection serial(g.num_nodes());
  ParallelSampler s1 = MakeSampler(g, probs, /*threads=*/1);
  serial.AddSets(s1, 2500, {});

  rrset::RrCollection parallel(g.num_nodes());
  ParallelSampler s8 = MakeSampler(g, probs, /*threads=*/8);
  parallel.AddSets(s8, 2500, {});

  ASSERT_EQ(serial.total_sets(), parallel.total_sets());
  ExpectStoresIdentical(*serial.store(), *parallel.store());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(serial.CoverageOf(v), parallel.CoverageOf(v)) << "node " << v;
  }
}

// A sampler runs on the pool it is handed: num_threads 0 takes all of
// the pool's concurrency, a larger request is capped by it, and pools of
// different sizes fill identical stores.
TEST(ParallelSamplerTest, PoolsOfDifferentSizesMatch) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.1);
  constexpr uint64_t kSets = 3000;
  const auto sample_on = [&](uint32_t concurrency) {
    ThreadPool pool(concurrency);
    ParallelSamplerOptions opts;
    opts.min_sets_per_thread = 1;
    opts.pool = &pool;
    ParallelSampler sampler(g, probs,
                            rrset::DiffusionModel::kIndependentCascade, 123,
                            opts);
    EXPECT_EQ(sampler.pool(), &pool);
    EXPECT_EQ(sampler.WorkerCountFor(kSets), pool.concurrency());
    opts.num_threads = 64;
    EXPECT_EQ(ParallelSampler(g, probs,
                              rrset::DiffusionModel::kIndependentCascade,
                              123, opts)
                  .max_threads(),
              pool.concurrency());
    RrStore store(g.num_nodes());
    sampler.SampleAppend(store, kSets);
    return store;
  };
  ExpectStoresIdentical(sample_on(2), sample_on(5));
}

// Without a pool, or with one but a one-worker request, a sampler runs
// inline whatever the batch size.
TEST(ParallelSamplerTest, PoollessSamplerRunsInline) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.1);
  for (uint32_t threads : {0u, 1u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const ParallelSampler sampler = MakeSampler(g, probs, threads);
    EXPECT_EQ(sampler.pool(), nullptr);
    EXPECT_EQ(sampler.WorkerCountFor(1 << 20), 1u);
  }
  ThreadPool pool(4);
  ParallelSamplerOptions opts;
  opts.num_threads = 1;
  opts.pool = &pool;
  const ParallelSampler one(g, probs,
                            rrset::DiffusionModel::kIndependentCascade, 123,
                            opts);
  EXPECT_EQ(one.pool(), nullptr);
  EXPECT_EQ(one.WorkerCountFor(1 << 20), 1u);
}

// The singleton-spread estimator samples on the pool it is handed, or
// inline: the same sets either way, so bit-identical estimates.
TEST(ParallelSamplerTest, SingletonSpreadsIdenticalInlineAndOnPools) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.1);
  constexpr uint64_t kTheta = 70'000;  // past one 2^16-set batch
  const auto want =
      rrset::EstimateAllSingletonSpreads(g, probs, kTheta, 23, nullptr);
  ASSERT_TRUE(want.ok());
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ThreadPool pool(threads);
    const auto got =
        rrset::EstimateAllSingletonSpreads(g, probs, kTheta, 23, &pool);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want.value(), got.value());
  }
}

TEST(ParallelSamplerTest, PilotWidthsIdenticalSerialAndParallel) {
  const Graph g = MakeBaGraph(400);
  const std::vector<double> probs(g.num_edges(), 0.08);

  rrset::SampleSizerOptions base;
  base.seed = 99;
  base.epsilon = 0.2;
  rrset::SampleSizer serial(g, probs, base);
  ASSERT_GT(serial.pilot_sets(), 0u);

  for (uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    rrset::SampleSizerOptions opt = base;
    opt.pool = &pool;
    rrset::SampleSizer parallel(g, probs, opt);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    EXPECT_EQ(serial.pilot_sets(), parallel.pilot_sets());
    EXPECT_EQ(serial.pilot_converged(), parallel.pilot_converged());
    EXPECT_DOUBLE_EQ(serial.kpt(), parallel.kpt());
    EXPECT_DOUBLE_EQ(serial.OptLowerBound(), parallel.OptLowerBound());
    for (uint64_t s : {1ull, 2ull, 5ull, 20ull}) {
      EXPECT_EQ(serial.ThetaFor(s), parallel.ThetaFor(s)) << "s=" << s;
    }
  }
}

TEST(ParallelSamplerTest, SharedCoinColumnFromSizerMatchesOwnColumn) {
  // One column per store: the sizer builds it for its pilot and hands the
  // same pointer to the store's samplers, whose 3 workers share it. The
  // sets equal those of a sampler that builds its own column. Uniform
  // p = 0.1 gives the graph's high-in-degree nodes skip coins.
  const Graph g = MakeBaGraph(400);
  const std::vector<double> probs(g.num_edges(), 0.1);
  rrset::SampleSizerOptions so;
  so.seed = 99;
  const rrset::SampleSizer sizer(g, probs, so);
  ASSERT_NE(sizer.coins(), nullptr);
  ASSERT_GT(std::count_if(sizer.coins()->nodes.begin(),
                          sizer.coins()->nodes.end(), rrset::IsSkipCoin),
            0);

  ParallelSamplerOptions opts;
  opts.num_threads = 3;
  opts.min_sets_per_thread = 1;
  opts.pool = test::SharedPool(3);
  ParallelSampler shared(g, probs, rrset::DiffusionModel::kIndependentCascade,
                         123, opts, sizer.coins());
  EXPECT_EQ(shared.coins(), sizer.coins());
  ParallelSampler own = MakeSampler(g, probs, 3);
  EXPECT_NE(own.coins(), sizer.coins());
  EXPECT_EQ(own.coins()->nodes, sizer.coins()->nodes);
  // No mixed node, so the store's column carries no arc codes either.
  EXPECT_TRUE(sizer.coins()->arc_codes.empty());
  RrStore a(g.num_nodes()), b(g.num_nodes());
  shared.SampleAppend(a, 3000);
  own.SampleAppend(b, 3000);
  ExpectStoresIdentical(a, b);
}

TEST(ParallelSamplerTest, TiCsrmAllocationInvariantAcrossThreadCounts) {
  const Graph g = MakeBaGraph(200);
  auto topics = topic::MakeUniform(g, 1, 0.08);
  ISA_CHECK(topics.ok());

  std::vector<core::AdvertiserSpec> ads(2);
  ads[0].cpe = 1.0;
  ads[0].budget = 40.0;
  ads[1].cpe = 0.7;
  ads[1].budget = 25.0;
  for (auto& ad : ads) ad.gamma = topic::TopicDistribution::Uniform(1);
  std::vector<std::vector<double>> incentives(
      2, std::vector<double>(g.num_nodes(), 1.0));
  auto inst = core::RmInstance::Create(g, topics.value(), std::move(ads),
                                       std::move(incentives));
  ISA_CHECK(inst.ok());

  core::TiOptions options;
  options.epsilon = 0.3;
  options.seed = 4242;
  options.theta_cap = 30'000;

  std::vector<std::vector<graph::NodeId>> reference;
  for (uint32_t threads : {1u, 2u, 8u}) {
    options.num_threads = threads;
    auto result = core::RunTiCsrm(inst.value(), options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    const auto& seed_sets = result.value().allocation.seed_sets;
    ASSERT_FALSE(seed_sets.empty());
    if (threads == 1u) {
      reference = seed_sets;
      // The run must actually select something, or the test is vacuous.
      EXPECT_GT(result.value().total_seeds, 0u);
    } else {
      EXPECT_EQ(reference, seed_sets) << threads << " threads";
    }
  }
}

// Full-driver determinism: for every candidate rule (and both window
// shapes of Algorithm 5), a fixed seed must yield a bit-identical TiResult
// — allocations, revenue, payments, θ — at 1, 2 and 8 threads, parallel
// advertiser init and pilot included.
TEST(ParallelSamplerTest, TiResultBitIdenticalAcrossThreadCountsAllRules) {
  const Graph g = MakeBaGraph(200);
  auto topics = topic::MakeUniform(g, 1, 0.08);
  ISA_CHECK(topics.ok());

  std::vector<core::AdvertiserSpec> ads(3);
  ads[0].cpe = 1.0;
  ads[0].budget = 40.0;
  ads[1].cpe = 0.7;
  ads[1].budget = 25.0;
  ads[2].cpe = 1.3;
  ads[2].budget = 30.0;
  for (auto& ad : ads) ad.gamma = topic::TopicDistribution::Uniform(1);
  std::vector<std::vector<double>> incentives(
      3, std::vector<double>(g.num_nodes(), 1.0));
  auto inst = core::RmInstance::Create(g, topics.value(), std::move(ads),
                                       std::move(incentives));
  ISA_CHECK(inst.ok());

  struct Config {
    const char* name;
    core::CandidateRule rule;
    core::SelectionRule sel;
    uint32_t window;
    bool share_samples;
  };
  const Config configs[] = {
      {"coverage", core::CandidateRule::kCoverage,
       core::SelectionRule::kMaxMarginalRevenue, 0, false},
      {"ratio-full", core::CandidateRule::kCoverageCostRatio,
       core::SelectionRule::kMaxRate, 0, false},
      {"ratio-window", core::CandidateRule::kCoverageCostRatio,
       core::SelectionRule::kMaxRate, 8, false},
      {"pagerank", core::CandidateRule::kPageRank,
       core::SelectionRule::kMaxMarginalRevenue, 0, false},
      {"ratio-shared", core::CandidateRule::kCoverageCostRatio,
       core::SelectionRule::kMaxRate, 0, true},
  };

  for (const Config& cfg : configs) {
    SCOPED_TRACE(cfg.name);
    core::TiOptions options;
    options.candidate_rule = cfg.rule;
    options.selection_rule = cfg.sel;
    options.window = cfg.window;
    options.share_samples = cfg.share_samples;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.theta_cap = 20'000;

    core::TiResult reference;
    for (uint32_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      options.num_threads = threads;
      auto result = core::RunTiGreedy(inst.value(), options);
      ASSERT_TRUE(result.ok()) << result.status().message();
      const core::TiResult& r = result.value();
      if (threads == 1u) {
        reference = r;
        EXPECT_GT(r.total_seeds, 0u);
        continue;
      }
      EXPECT_EQ(reference.allocation.seed_sets, r.allocation.seed_sets);
      EXPECT_EQ(reference.total_revenue, r.total_revenue);        // bitwise
      EXPECT_EQ(reference.total_seeding_cost, r.total_seeding_cost);
      EXPECT_EQ(reference.total_seeds, r.total_seeds);
      EXPECT_EQ(reference.total_theta, r.total_theta);
      ASSERT_EQ(reference.ad_stats.size(), r.ad_stats.size());
      for (size_t j = 0; j < r.ad_stats.size(); ++j) {
        SCOPED_TRACE(testing::Message() << "ad " << j);
        EXPECT_EQ(reference.ad_stats[j].theta, r.ad_stats[j].theta);
        EXPECT_EQ(reference.ad_stats[j].latent_seed_size,
                  r.ad_stats[j].latent_seed_size);
        EXPECT_EQ(reference.ad_stats[j].revenue, r.ad_stats[j].revenue);
        EXPECT_EQ(reference.ad_stats[j].payment, r.ad_stats[j].payment);
        EXPECT_EQ(reference.ad_stats[j].seeding_cost,
                  r.ad_stats[j].seeding_cost);
      }
    }
  }
}

// Stress for TSan: a large batch through a shared pool drives the sharded
// sampling, the parallel counting-sort index build, and the sharded
// coverage adoption all at once; the serial rerun cross-checks the result.
TEST(ParallelSamplerTest, StressSharedPoolLargeBatchWithParallelIndex) {
  const Graph g = MakeBaGraph(500);
  const std::vector<double> probs(g.num_edges(), 0.2);
  constexpr uint64_t kSets = 30'000;  // enough postings for the sharded paths

  ThreadPool pool(8);
  ParallelSamplerOptions opts;
  opts.num_threads = 8;
  opts.min_sets_per_thread = 1;
  opts.pool = &pool;
  ParallelSampler sampler(g, probs,
                          rrset::DiffusionModel::kIndependentCascade, 555,
                          opts);
  rrset::RrCollection parallel(g.num_nodes());
  parallel.AddSets(sampler, kSets, {});

  rrset::RrCollection serial(g.num_nodes());
  ParallelSampler s1 = MakeSampler(g, probs, /*threads=*/1, 555);
  serial.AddSets(s1, kSets, {});

  ExpectStoresIdentical(*serial.store(), *parallel.store());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(serial.CoverageOf(v), parallel.CoverageOf(v)) << "node " << v;
  }
  EXPECT_EQ(serial.store()->SetsContaining(0), parallel.store()->SetsContaining(0));
}

// The same resident sets, index and byte accounting (vector capacities
// included), hot ids only.
void ExpectHotStoresEqual(const RrStore& got, const RrStore& want) {
  ASSERT_EQ(got.num_sets(), want.num_sets());
  ASSERT_EQ(got.first_resident_set(), want.first_resident_set());
  for (uint64_t r = got.first_resident_set(); r < got.num_sets(); ++r) {
    const auto a = got.SetMembers(r);
    const auto b = want.SetMembers(r);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "set " << r;
  }
  for (graph::NodeId v = 0; v < got.num_nodes(); ++v) {
    ASSERT_EQ(got.SetsContaining(v), want.SetsContaining(v)) << "node " << v;
  }
  EXPECT_EQ(got.IndexBytes(), want.IndexBytes());
  EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes());
}

// SampleAppend copies each worker's shard straight into the store's
// columns. The store must come out exactly as if the batch had first been
// concatenated (SampleToBuffer) and then appended as one part
// (AppendBatch): at every worker count, across repeated appends, for a
// trickle batch that runs inline, and for appends after a spill.
TEST(ParallelSamplerTest, SampleAppendMatchesBufferThenAppendBatch) {
  const Graph g = MakeBaGraph(400);
  const std::vector<double> probs(g.num_edges(), 0.1);
  constexpr uint64_t kMinSetsPerThread = 64;
  rrset::SpillOptions so;
  so.chunk_target_bytes = 4u << 10;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ParallelSampler direct =
        MakeSampler(g, probs, threads, 2024, kMinSetsPerThread);
    ParallelSampler buffered =
        MakeSampler(g, probs, threads, 2024, kMinSetsPerThread);
    RrStore got(g.num_nodes());
    RrStore want(g.num_nodes());
    std::vector<graph::NodeId> nodes;
    std::vector<uint32_t> sizes;
    const auto append = [&](uint64_t count) {
      direct.SampleAppend(got, count);
      buffered.SampleToBuffer(want.num_sets(), count, &nodes, &sizes);
      want.AppendBatch(nodes, sizes, buffered.pool(), buffered.base_seed());
      ExpectHotStoresEqual(got, want);
    };
    append(1000);
    append(3001);
    append(kMinSetsPerThread - 1);  // below the floor: one inline worker
    ASSERT_EQ(direct.WorkerCountFor(kMinSetsPerThread - 1), 1u);
    got.SpillPrefix(got.num_sets() - 700, so);
    want.SpillPrefix(want.num_sets() - 700, so);
    ExpectHotStoresEqual(got, want);
    append(2500);
    append(1);
  }
}

// Stress case for ThreadSanitizer builds: hammer one sampler with many
// small multi-worker batches so shard hand-off and merge run thousands of
// times. Assertions are deliberately light — under TSan the value of this
// test is the absence of reported races.
TEST(ParallelSamplerTest, StressManySmallBatches) {
  const Graph g = MakeBaGraph(120);
  const std::vector<double> probs(g.num_edges(), 0.15);
  RrStore store(g.num_nodes());
  ParallelSampler sampler = MakeSampler(g, probs, /*threads=*/8, 31337);
  uint64_t expected = 0;
  for (int round = 0; round < 200; ++round) {
    const uint64_t batch = 1 + (round % 17);
    sampler.SampleAppend(store, batch);
    expected += batch;
  }
  EXPECT_EQ(store.num_sets(), expected);
  // Every stored set must be non-empty (each contains at least its root).
  for (uint64_t r = 0; r < store.num_sets(); ++r) {
    ASSERT_FALSE(store.SetMembers(r).empty()) << "set " << r;
  }
}

}  // namespace
}  // namespace isa
