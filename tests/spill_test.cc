// The out-of-core RR store: SpillFile round-trips, RrStore::SpillPrefix
// mechanics, cold-tier coverage removal equivalence, the TieredRrStore
// budget policy, and the end-to-end invariant — a fixed seed yields a
// bit-identical TiResult at any thread count and ANY memory budget
// (spilling changes where bytes live, never what is computed).

#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/spill_file.h"
#include "rrset/tiered_store.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa {
namespace {

using core::CandidateRule;
using core::RmInstance;
using core::RunTiGreedy;
using core::SelectionRule;
using core::TiOptions;
using core::TiResult;
using graph::Graph;
using rrset::ParallelSampler;
using rrset::ParallelSamplerOptions;
using rrset::RrCollection;
using rrset::RrStore;
using rrset::SpillFile;
using rrset::SpillOptions;
using rrset::TieredRrStore;
using rrset::TieredStoreOptions;

Graph MakeBaGraph(graph::NodeId n, uint32_t m, uint64_t seed = 9) {
  graph::BarabasiAlbertOptions opts;
  opts.num_nodes = n;
  opts.edges_per_node = m;
  opts.seed = seed;
  auto g = graph::GenerateBarabasiAlbert(opts);
  ISA_CHECK(g.ok());
  return std::move(g).value();
}

ParallelSampler MakeSampler(const Graph& g, std::span<const double> probs,
                            uint32_t threads, uint64_t seed = 123) {
  ParallelSamplerOptions opts;
  opts.num_threads = threads;
  opts.pool = test::SharedPool(threads);
  opts.min_sets_per_thread = 1;
  return ParallelSampler(g, probs, rrset::DiffusionModel::kIndependentCascade,
                         seed, opts);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// ------------------------------------------------------------- SpillFile

TEST(SpillFileTest, RoundTripChunksAndFooters) {
  const std::string path = rrset::MakeSpillPath();
  {
    SpillFile file(path);
    // Chunk 0: sets [0, 3) with members {5}, {7, 2}, {9, 9, 4}.
    const std::vector<uint32_t> sizes0 = {1, 2, 3};
    const std::vector<graph::NodeId> nodes0 = {5, 7, 2, 9, 9, 4};
    file.AppendChunk(0, 3, sizes0, nodes0,
                     test::BruteForceChunkIndex(sizes0, nodes0));
    // Chunk 1: sets [3, 5) with members {1}, {8, 3}.
    const std::vector<uint32_t> sizes1 = {1, 2};
    const std::vector<graph::NodeId> nodes1 = {1, 8, 3};
    file.AppendChunk(3, 5, sizes1, nodes1,
                     test::BruteForceChunkIndex(sizes1, nodes1));

    ASSERT_EQ(file.num_chunks(), 2u);
    const auto chunks = file.chunks();
    EXPECT_EQ(chunks[0].set_lo, 0u);
    EXPECT_EQ(chunks[0].set_hi, 3u);
    EXPECT_EQ(chunks[0].node_min, 2u);
    EXPECT_EQ(chunks[0].node_max, 9u);
    EXPECT_EQ(chunks[0].postings, 6u);
    EXPECT_EQ(chunks[1].set_lo, 3u);
    EXPECT_EQ(chunks[1].node_min, 1u);
    EXPECT_EQ(chunks[1].node_max, 8u);
    EXPECT_GT(file.bytes_on_disk(), 0u);
    EXPECT_TRUE(FileExists(path));

    std::vector<uint32_t> sizes;
    std::vector<graph::NodeId> nodes;
    file.ReadChunk(0, &sizes, &nodes);
    EXPECT_EQ(sizes, sizes0);
    EXPECT_EQ(nodes, nodes0);
    file.ReadChunk(1, &sizes, &nodes);
    EXPECT_EQ(sizes, sizes1);
    EXPECT_EQ(nodes, nodes1);
  }
  // The chunk file is a cache, not a persistence format: gone with the
  // object.
  EXPECT_FALSE(FileExists(path));
}

// --------------------------------------------------- RrStore::SpillPrefix

struct SpilledStoreCase {
  RrStore store;
  std::vector<std::vector<graph::NodeId>> members;       // per set, pre-spill
  std::vector<std::vector<uint32_t>> sets_containing;    // per node, pre-spill

  explicit SpilledStoreCase(const Graph& g, uint64_t sets) : store(g.num_nodes()) {
    const std::vector<double> probs(g.num_edges(), 0.1);
    MakeSampler(g, probs, /*threads=*/1).SampleAppend(store, sets);
    for (uint64_t r = 0; r < store.num_sets(); ++r) {
      auto m = store.SetMembers(r);
      members.emplace_back(m.begin(), m.end());
    }
    for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
      sets_containing.push_back(store.SetsContaining(v));
    }
  }
};

// Collects ForEachSpilledSetContaining(v) into (id, members) pairs.
std::vector<std::pair<uint64_t, std::vector<graph::NodeId>>> SpilledHits(
    const RrStore& store, graph::NodeId v, uint64_t max_id,
    std::span<const uint8_t> alive = {}) {
  std::vector<std::pair<uint64_t, std::vector<graph::NodeId>>> out;
  store.ForEachSpilledSetContaining(
      v, max_id, alive,
      [&](uint64_t r, std::span<const graph::NodeId> m) {
        out.emplace_back(r, std::vector<graph::NodeId>(m.begin(), m.end()));
      });
  return out;
}

TEST(SpillStoreTest, SpillPrefixPreservesQueriesAndShrinksMemory) {
  const Graph g = MakeBaGraph(300, 3);
  SpilledStoreCase c(g, 4000);
  RrStore& store = c.store;
  const uint64_t bytes_before = store.MemoryBytes();
  const double mean_before = store.MeanSetSize();

  SpillOptions so;
  so.path = rrset::MakeSpillPath();
  so.chunk_target_bytes = 1u << 14;  // several chunks
  store.SpillPrefix(2000, so);

  EXPECT_EQ(store.num_sets(), 4000u);
  EXPECT_EQ(store.first_resident_set(), 2000u);
  EXPECT_GT(store.SpilledBytes(), 0u);
  EXPECT_GT(store.SpillChunks(), 1u);
  EXPECT_LT(store.MemoryBytes(), bytes_before);
  EXPECT_DOUBLE_EQ(store.MeanSetSize(), mean_before);

  // Hot sets read back unchanged; the index now stops at the frontier.
  for (uint64_t r = 2000; r < 4000; ++r) {
    const auto m = store.SetMembers(r);
    ASSERT_TRUE(std::equal(m.begin(), m.end(), c.members[r].begin(),
                           c.members[r].end()))
        << "set " << r;
  }
  for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
    std::vector<uint32_t> expected_hot;
    for (uint32_t r : c.sets_containing[v]) {
      if (r >= 2000) expected_hot.push_back(r);
    }
    EXPECT_EQ(store.SetsContaining(v), expected_hot) << "node " << v;
  }

  // The cold tier serves exactly the spilled sets, ascending, with their
  // original members.
  const uint64_t reloads_before = store.scan_reloads();
  for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
    const auto hits = SpilledHits(store, v, 4000);
    std::vector<uint32_t> expected_cold;
    for (uint32_t r : c.sets_containing[v]) {
      if (r < 2000) expected_cold.push_back(r);
    }
    ASSERT_EQ(hits.size(), expected_cold.size()) << "node " << v;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].first, expected_cold[i]);
      EXPECT_EQ(hits[i].second, c.members[expected_cold[i]]);
    }
  }
  EXPECT_GT(store.scan_reloads(), reloads_before);

  // Spill the rest: the store can go fully cold and still serve scans.
  store.SpillPrefix(4000, so);
  EXPECT_EQ(store.first_resident_set(), 4000u);
  const auto hits = SpilledHits(store, 0, 4000);
  std::vector<uint32_t> expected;
  for (uint32_t r : c.sets_containing[0]) expected.push_back(r);
  ASSERT_EQ(hits.size(), expected.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].first, expected[i]);
  }
}

// A store filled by a pooled sampler and evicted with a pooled index
// rebuild must serve the same cold lookups — ids, members and emission
// order — and the same hot index as one built serially, on a small and a
// larger graph.
TEST(SpillStoreTest, ParallelScanMatchesSerial) {
  ThreadPool pool(4);
  for (const graph::NodeId n : {300u, 5000u}) {
    SCOPED_TRACE(testing::Message() << n << " nodes");
    const Graph g = MakeBaGraph(n, 2);
    const std::vector<double> probs(g.num_edges(), 0.1);
    RrStore serial(g.num_nodes());
    RrStore parallel(g.num_nodes());
    MakeSampler(g, probs, /*threads=*/1).SampleAppend(serial, 4000);
    MakeSampler(g, probs, /*threads=*/4).SampleAppend(parallel, 4000);
    SpillOptions so;
    so.chunk_target_bytes = 1u << 12;  // many chunks
    serial.SpillPrefix(3500, so);
    parallel.SpillPrefix(3500, so, &pool);
    ASSERT_GT(serial.SpillChunks(), 3u);
    ASSERT_EQ(serial.SpillChunks(), parallel.SpillChunks());

    for (graph::NodeId v = 0; v < g.num_nodes(); v += 7) {
      ASSERT_EQ(SpilledHits(serial, v, 4000), SpilledHits(parallel, v, 4000))
          << "node " << v;
      ASSERT_EQ(serial.SetsContaining(v), parallel.SetsContaining(v))
          << "node " << v;
    }
    EXPECT_EQ(serial.chunks_read(), parallel.chunks_read());
    EXPECT_EQ(serial.chunks_skipped(), parallel.chunks_skipped());
  }
}

// The alive filter must drop sets before their members are read (the
// RemoveCoveredBy alive flags ride on it, so covered sets cost nothing).
TEST(SpillStoreTest, AliveFilterDropsBeforeEmit) {
  const Graph g = MakeBaGraph(200, 3);
  SpilledStoreCase c(g, 1500);
  SpillOptions so;
  so.chunk_target_bytes = 1u << 12;
  c.store.SpillPrefix(1500, so);

  std::vector<uint8_t> even_only(1500);
  for (size_t r = 0; r < even_only.size(); ++r) even_only[r] = r % 2 == 0;
  for (graph::NodeId v = 0; v < c.store.num_nodes(); v += 11) {
    std::vector<uint32_t> expected;
    for (uint32_t r : c.sets_containing[v]) {
      if (r % 2 == 0) expected.push_back(r);
    }
    const auto hits = SpilledHits(c.store, v, 1500, even_only);
    ASSERT_EQ(hits.size(), expected.size()) << "node " << v;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].first, expected[i]);
      EXPECT_EQ(hits[i].second, c.members[expected[i]]);
    }
  }
}

// Eviction carves dense id ranges: on a graph large enough for any
// node-ordered layout to reorder sets, the chunks of two eviction batches
// tile [0, first_resident_set()) contiguously in file order, and a cold
// lookup emits strictly ascending ids.
TEST(SpillStoreTest, ChunksTileSpilledPrefixInIdOrder) {
  const Graph g = MakeBaGraph(5000, 2);
  SpilledStoreCase c(g, 4000);
  SpillOptions so;
  so.chunk_target_bytes = 1u << 12;  // many chunks per batch
  c.store.SpillPrefix(1500, so);
  c.store.SpillPrefix(3500, so);
  const auto chunks = c.store.spill_file()->chunks();
  ASSERT_GT(chunks.size(), 3u);
  uint64_t next = 0;
  for (size_t k = 0; k < chunks.size(); ++k) {
    ASSERT_EQ(chunks[k].set_lo, next) << "chunk " << k;
    ASSERT_LT(chunks[k].set_lo, chunks[k].set_hi) << "chunk " << k;
    next = chunks[k].set_hi;
  }
  EXPECT_EQ(next, c.store.first_resident_set());

  for (graph::NodeId v = 0; v < g.num_nodes(); v += 7) {
    std::vector<uint32_t> got;
    for (const auto& hit : SpilledHits(c.store, v, 4000)) {
      got.push_back(static_cast<uint32_t>(hit.first));
    }
    ASSERT_EQ(std::adjacent_find(got.begin(), got.end(),
                                 std::greater_equal<uint32_t>()),
              got.end())
        << "node " << v;
    std::vector<uint32_t> expected_cold;
    for (uint32_t r : c.sets_containing[v]) {
      if (r < 3500) expected_cold.push_back(r);
    }
    ASSERT_EQ(got, expected_cold) << "node " << v;
  }
}

TEST(SpillStoreTest, OneSetPerChunkDegenerateTarget) {
  const Graph g = MakeBaGraph(120, 3);
  SpilledStoreCase c(g, 500);
  SpillOptions so;
  so.chunk_target_bytes = 1;  // smaller than any set: one set per chunk
  c.store.SpillPrefix(500, so);
  EXPECT_EQ(c.store.SpillChunks(), 500u);
  const auto hits = SpilledHits(c.store, 5, 500);
  std::vector<uint32_t> expected;
  for (uint32_t r : c.sets_containing[5]) expected.push_back(r);
  ASSERT_EQ(hits.size(), expected.size());
}

// ------------------------------------------- cold-tier coverage removal

// The same seed-commit sequence over a resident-only store and a spilled
// store must produce identical coverage state — RemoveCoveredBy is the one
// consumer that re-reads cold members.
TEST(SpillCollectionTest, RemoveCoveredByMatchesResidentStore) {
  const Graph g = MakeBaGraph(300, 3);
  const std::vector<double> probs(g.num_edges(), 0.1);
  ThreadPool pool(4);

  for (const bool use_pool : {false, true}) {
    SCOPED_TRACE(use_pool ? "pooled scan" : "serial scan");
    RrCollection resident(g.num_nodes());
    RrCollection spilled(g.num_nodes());
    {
      ParallelSampler s1 = MakeSampler(g, probs, 1);
      resident.AddSets(s1, 3000, {});
    }
    {
      ParallelSampler s2 = MakeSampler(g, probs, 1);
      spilled.AddSets(s2, 3000, {});
    }
    SpillOptions so;
    so.chunk_target_bytes = 1u << 13;
    spilled.store()->SpillPrefix(1500, so);

    std::vector<graph::NodeId> touched_a, touched_b;
    for (const graph::NodeId seed : {7u, 42u, 199u, 42u, 0u, 250u}) {
      const uint32_t removed_a = resident.RemoveCoveredBy(seed, &touched_a);
      const uint32_t removed_b = spilled.RemoveCoveredBy(
          seed, &touched_b, use_pool ? &pool : nullptr);
      ASSERT_EQ(removed_a, removed_b) << "seed " << seed;
      ASSERT_EQ(touched_a, touched_b) << "seed " << seed;
      ASSERT_EQ(resident.covered_sets(), spilled.covered_sets());
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(resident.CoverageOf(v), spilled.CoverageOf(v))
            << "seed " << seed << " node " << v;
      }
    }
  }
}

// ------------------------------------------------------- TieredRrStore

TEST(SpillTieredTest, BudgetLargerThanEverythingIsNoOp) {
  const Graph g = MakeBaGraph(120, 3);
  auto store = std::make_shared<RrStore>(g.num_nodes());
  const std::vector<double> probs(g.num_edges(), 0.1);
  MakeSampler(g, probs, 1).SampleAppend(*store, 1000);
  const uint64_t bytes = store->MemoryBytes();

  TieredStoreOptions to;
  to.rr_memory_budget_bytes = bytes * 100;
  TieredRrStore tier(store, to);
  tier.MaybeSpill(store->num_sets());
  EXPECT_EQ(store->first_resident_set(), 0u);
  EXPECT_EQ(store->SpilledBytes(), 0u);
  EXPECT_EQ(tier.spill_events(), 0u);
  EXPECT_EQ(store->MemoryBytes(), bytes);  // untouched, byte for byte
  EXPECT_EQ(tier.resident_peak_bytes(), bytes);
}

TEST(SpillTieredTest, TinyBudgetSpillsEverythingEvictable) {
  const Graph g = MakeBaGraph(120, 3);
  auto store = std::make_shared<RrStore>(g.num_nodes());
  const std::vector<double> probs(g.num_edges(), 0.1);
  MakeSampler(g, probs, 1).SampleAppend(*store, 1000);
  const uint64_t bytes_before = store->MemoryBytes();

  TieredStoreOptions to;
  to.rr_memory_budget_bytes = 1;  // smaller than any chunk
  to.chunk_target_bytes = 1u << 12;
  TieredRrStore tier(store, to);
  // Only fully-adopted ids may go: cap at 600 first.
  tier.MaybeSpill(600);
  EXPECT_EQ(store->first_resident_set(), 600u);
  const uint64_t first_peak = store->MemoryBytes();
  EXPECT_EQ(tier.resident_peak_bytes(), first_peak);
  tier.MaybeSpill(1000);
  EXPECT_EQ(store->first_resident_set(), 1000u);
  EXPECT_EQ(tier.spill_events(), 2u);
  EXPECT_LT(store->MemoryBytes(), bytes_before);
  EXPECT_GT(store->SpilledBytes(), 0u);
  // The peak counts resident bytes at barriers only: the second barrier's
  // larger spilled total never raises it.
  EXPECT_LE(store->MemoryBytes(), first_peak);
  EXPECT_EQ(tier.resident_peak_bytes(), first_peak);
  EXPECT_LT(tier.resident_peak_bytes(), bytes_before);
  // Budget already satisfied or nothing evictable: further calls no-op.
  tier.MaybeSpill(1000);
  EXPECT_EQ(tier.spill_events(), 2u);
}

// ------------------------------------------------------------ end to end

// High-influence fixture (as in advertiser_engine_test.cc): θ-growth
// engages several times per run, which is what moves the spill barrier and
// the growth-adoption interplay onto the hot path.
struct SpillEndToEndFixture {
  Graph g = MakeBaGraph(150, 9);
  std::unique_ptr<RmInstance> instance;

  explicit SpillEndToEndFixture(double arc_prob = 0.8) {
    auto topics =
        test::RegimeTopics(g, graph::WeightingRegime::kUniformIc, 1, arc_prob);
    ISA_CHECK(topics.ok());
    std::vector<core::AdvertiserSpec> ads(3);
    ads[0].cpe = 0.2;
    ads[0].budget = 30.0;
    ads[1].cpe = 0.15;
    ads[1].budget = 25.0;
    ads[2].cpe = 0.25;
    ads[2].budget = 35.0;
    for (auto& ad : ads) ad.gamma = topic::TopicDistribution::Uniform(1);
    std::vector<std::vector<double>> incentives(
        3, std::vector<double>(g.num_nodes(), 1.0));
    auto inst = RmInstance::Create(g, topics.value(), std::move(ads),
                                   std::move(incentives));
    ISA_CHECK(inst.ok());
    instance = std::make_unique<RmInstance>(std::move(inst).value());
  }

  TiOptions BaseOptions() const {
    TiOptions options;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.theta_cap = 200'000;
    return options;
  }
};

// Everything the algorithm computes — never the memory/spill statistics,
// which legitimately differ across budgets.
void ExpectComputedResultsIdentical(const TiResult& a, const TiResult& b) {
  EXPECT_EQ(a.allocation.seed_sets, b.allocation.seed_sets);
  EXPECT_EQ(a.total_revenue, b.total_revenue);  // bitwise
  EXPECT_EQ(a.total_seeding_cost, b.total_seeding_cost);
  EXPECT_EQ(a.total_seeds, b.total_seeds);
  EXPECT_EQ(a.total_theta, b.total_theta);
  EXPECT_EQ(a.total_growth_events, b.total_growth_events);
  EXPECT_EQ(a.ads_growth_engaged, b.ads_growth_engaged);
  EXPECT_EQ(a.ads_growth_idle, b.ads_growth_idle);
  EXPECT_EQ(a.total_theta_cap_hits, b.total_theta_cap_hits);
  ASSERT_EQ(a.ad_stats.size(), b.ad_stats.size());
  for (size_t j = 0; j < a.ad_stats.size(); ++j) {
    SCOPED_TRACE(testing::Message() << "ad " << j);
    EXPECT_EQ(a.ad_stats[j].theta, b.ad_stats[j].theta);
    EXPECT_EQ(a.ad_stats[j].latent_seed_size, b.ad_stats[j].latent_seed_size);
    EXPECT_EQ(a.ad_stats[j].revenue, b.ad_stats[j].revenue);
    EXPECT_EQ(a.ad_stats[j].payment, b.ad_stats[j].payment);
    EXPECT_EQ(a.ad_stats[j].seeding_cost, b.ad_stats[j].seeding_cost);
    EXPECT_EQ(a.ad_stats[j].sample_growth_events,
              b.ad_stats[j].sample_growth_events);
    EXPECT_EQ(a.ad_stats[j].idle_growth_revisions,
              b.ad_stats[j].idle_growth_revisions);
    EXPECT_EQ(a.ad_stats[j].theta_cap_hits, b.ad_stats[j].theta_cap_hits);
  }
}

// Budget at ~50% of the largest store: spills genuinely happen, results
// stay bit-identical at 1/2/8 threads.
TEST(SpillEndToEndTest, TiResultBitIdenticalAtHalfBudgetAcrossThreads) {
  SpillEndToEndFixture f;
  struct Config {
    const char* name;
    CandidateRule rule;
    SelectionRule sel;
    uint32_t window;
  };
  const Config configs[] = {
      {"coverage", CandidateRule::kCoverage,
       SelectionRule::kMaxMarginalRevenue, 0},
      {"ratio-full", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 0},
      {"ratio-window", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 8},
  };

  for (const Config& cfg : configs) {
    SCOPED_TRACE(cfg.name);
    TiOptions options = f.BaseOptions();
    options.candidate_rule = cfg.rule;
    options.selection_rule = cfg.sel;
    options.window = cfg.window;
    options.num_threads = 1;

    auto unbudgeted = RunTiGreedy(*f.instance, options);
    ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().message();
    const TiResult& reference = unbudgeted.value();
    ASSERT_GT(reference.total_seeds, 0u);
    // The fixture must actually exercise growth adoption into a spilled
    // store.
    ASSERT_GT(reference.total_growth_events, 0u);
    uint64_t max_store_bytes = 0;
    for (const auto& st : reference.ad_stats) {
      max_store_bytes = std::max(max_store_bytes, st.rr_memory_bytes);
    }

    options.rr_memory_budget_bytes = max_store_bytes / 2;
    for (uint32_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      options.num_threads = threads;
      auto budgeted = RunTiGreedy(*f.instance, options);
      ASSERT_TRUE(budgeted.ok()) << budgeted.status().message();
      ExpectComputedResultsIdentical(reference, budgeted.value());
      // The budget must have bitten — otherwise this test proves nothing.
      EXPECT_GT(budgeted.value().total_spilled_bytes, 0u);
      EXPECT_GT(budgeted.value().total_spill_chunks, 0u);
      // Barrier-observed resident peaks honor the budget: everything over
      // it was fully adopted and therefore evictable here.
      for (const auto& st : budgeted.value().ad_stats) {
        if (st.rr_resident_peak_bytes > 0) {
          EXPECT_LE(st.rr_resident_peak_bytes,
                    options.rr_memory_budget_bytes);
        }
      }
    }
  }
}

// A 1-byte budget spills everything evictable at every barrier — the
// maximally hostile schedule: constant evictions, every coverage removal
// scanning cold chunks, growth adoptions landing into a spilled store.
TEST(SpillEndToEndTest, PathologicalOneByteBudgetStillBitIdentical) {
  SpillEndToEndFixture f;
  TiOptions options = f.BaseOptions();
  options.num_threads = 1;
  auto unbudgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(unbudgeted.ok());

  options.rr_memory_budget_bytes = 1;
  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    options.num_threads = threads;
    auto budgeted = RunTiGreedy(*f.instance, options);
    ASSERT_TRUE(budgeted.ok()) << budgeted.status().message();
    ExpectComputedResultsIdentical(unbudgeted.value(), budgeted.value());
    EXPECT_GT(budgeted.value().total_spilled_bytes, 0u);
    EXPECT_GT(budgeted.value().total_scan_reloads, 0u);
  }
}

// Budget above every store's footprint: the tier never spills and the run
// is byte-identical to the unbudgeted one INCLUDING the memory statistics
// (the no-op path really is a no-op).
TEST(SpillEndToEndTest, HugeBudgetIsByteIdenticalNoOp) {
  SpillEndToEndFixture f;
  TiOptions options = f.BaseOptions();
  options.num_threads = 2;
  auto unbudgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(unbudgeted.ok());

  options.rr_memory_budget_bytes = 1ull << 40;
  auto budgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(budgeted.ok());
  ExpectComputedResultsIdentical(unbudgeted.value(), budgeted.value());
  EXPECT_EQ(budgeted.value().total_spilled_bytes, 0u);
  EXPECT_EQ(budgeted.value().total_spill_chunks, 0u);
  EXPECT_EQ(budgeted.value().total_scan_reloads, 0u);
  EXPECT_EQ(budgeted.value().total_rr_memory_bytes,
            unbudgeted.value().total_rr_memory_bytes);
  ASSERT_EQ(budgeted.value().ad_stats.size(),
            unbudgeted.value().ad_stats.size());
  for (size_t j = 0; j < budgeted.value().ad_stats.size(); ++j) {
    EXPECT_EQ(budgeted.value().ad_stats[j].rr_memory_bytes,
              unbudgeted.value().ad_stats[j].rr_memory_bytes);
  }
}

// Shared stores spill too: the evictable frontier is the MIN adopted θ
// over the store's views, so no view ever loses unadopted or unread sets.
TEST(SpillEndToEndTest, SharedStoreBudgetedMatchesUnbudgeted) {
  SpillEndToEndFixture f;
  TiOptions options = f.BaseOptions();
  options.share_samples = true;
  options.num_threads = 1;
  auto unbudgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(unbudgeted.ok());

  options.rr_memory_budget_bytes = 1;
  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    options.num_threads = threads;
    auto budgeted = RunTiGreedy(*f.instance, options);
    ASSERT_TRUE(budgeted.ok());
    ExpectComputedResultsIdentical(unbudgeted.value(), budgeted.value());
    EXPECT_GT(budgeted.value().total_spilled_bytes, 0u);
  }
}

// A budget smaller than the store streams θ(1) through the tier in
// batches (RunTiGreedy's init), evicting between them; the sets, and so
// everything computed, are those of the one-batch run, at any thread count
// and whether one view or several adopt each batch. θ(1) is the θ cap here
// and never grows, so the chunk list shows the init evictions alone.
TEST(SpillEndToEndTest, StreamedFirstSampleMatchesUnbudgeted) {
  SpillEndToEndFixture f(/*arc_prob=*/0.1);  // small sets: cheap batches
  TiOptions options = f.BaseOptions();
  constexpr uint64_t kTheta = 10'000;
  // The fewest sets per batch (RunTiGreedy's floor), which a one-byte
  // budget gets: 9 full batches and one of 784 sets.
  constexpr uint64_t kFloorBatch = 1024;
  options.theta_cap = kTheta;
  for (const bool share : {false, true}) {
    SCOPED_TRACE(share ? "one shared store" : "a store per ad");
    options.share_samples = share;
    options.rr_memory_budget_bytes = 0;
    options.num_threads = 1;
    auto unbudgeted = RunTiGreedy(*f.instance, options);
    ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().message();
    const TiResult& reference = unbudgeted.value();
    ASSERT_EQ(reference.total_growth_events, 0u);
    ASSERT_EQ(reference.ad_stats[0].theta, kTheta);
    // Resident bytes of ad 0's store: an offset per set, and a member and
    // an index posting per member (the CSR's node offsets aside).
    const uint64_t postings =
        (reference.ad_stats[0].rr_index_bytes -
         (f.g.num_nodes() + 1) * sizeof(uint64_t)) /
        sizeof(uint32_t);
    const uint64_t store_bytes =
        kTheta * sizeof(uint64_t) + postings * 2 * sizeof(uint32_t);

    struct Budget {
      const char* name;
      uint64_t bytes;
    };
    const Budget budgets[] = {
        {"one batch", 2 * store_bytes},
        {"two batches", store_bytes * 3 / 4},
        {"ten batches", 1},
    };
    for (const Budget& budget : budgets) {
      SCOPED_TRACE(budget.name);
      options.rr_memory_budget_bytes = budget.bytes;
      std::vector<std::vector<std::pair<uint64_t, uint64_t>>> chunks;
      for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        options.num_threads = threads;
        auto budgeted = RunTiGreedy(*f.instance, options);
        ASSERT_TRUE(budgeted.ok()) << budgeted.status().message();
        ExpectComputedResultsIdentical(reference, budgeted.value());
        std::vector<std::vector<std::pair<uint64_t, uint64_t>>> ranges;
        for (const auto& st : budgeted.value().ad_stats) {
          ranges.push_back(st.spill_chunk_ranges);
        }
        if (threads == 1) {
          chunks = ranges;
        } else {
          EXPECT_EQ(ranges, chunks);
        }
      }
      if (budget.bytes > store_bytes) {
        EXPECT_TRUE(chunks[0].empty());  // the whole sample fits
        continue;
      }
      ASSERT_FALSE(chunks[0].empty());
      EXPECT_EQ(chunks[0].front().first, 0u);
      if (budget.bytes == 1) {
        // Every step evicts the whole store: one chunk per batch.
        std::vector<std::pair<uint64_t, uint64_t>> grid;
        for (uint64_t lo = 0; lo < kTheta; lo += kFloorBatch) {
          grid.emplace_back(lo, std::min(lo + kFloorBatch, kTheta));
        }
        EXPECT_EQ(chunks[0], grid);
      }
    }
  }
}

// ------------------------------------------------------- eviction

// Appends `count` random sets over `num_nodes` nodes (0-6 members, drawn
// with replacement, so some repeat a member; every 5th set lists its first
// member again) to `store` and their members to `members`.
void AppendRandomSets(RrStore& store,
                      std::vector<std::vector<graph::NodeId>>& members,
                      Rng& rng, uint64_t count, ThreadPool* pool) {
  std::vector<graph::NodeId> nodes;
  std::vector<uint32_t> sizes;
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<graph::NodeId> set(rng.NextBounded(7));
    for (graph::NodeId& v : set) {
      v = static_cast<graph::NodeId>(rng.NextBounded(store.num_nodes()));
    }
    if (i % 5 == 0 && !set.empty()) set.push_back(set.front());
    sizes.push_back(static_cast<uint32_t>(set.size()));
    nodes.insert(nodes.end(), set.begin(), set.end());
    members.push_back(std::move(set));
  }
  store.AppendBatch(nodes, sizes, pool, /*provenance_seed=*/rng.Next());
}

// After an eviction, every node's cold hits must be the spilled sets that
// list it (once each, with their members, ascending) and its hot postings
// the resident sets that list it (once per listing, as the index holds
// them), both by a member scan; and the store must hold exactly the
// exact-fit columns and CSR of its hot remainder.
void ExpectEvictedStoreMatchesMemberScan(
    const RrStore& store,
    const std::vector<std::vector<graph::NodeId>>& members) {
  const uint64_t first = store.first_resident_set();
  std::vector<std::vector<uint32_t>> cold(store.num_nodes());
  std::vector<std::vector<uint32_t>> hot(store.num_nodes());
  uint64_t hot_postings = 0;
  for (uint32_t r = 0; r < members.size(); ++r) {
    for (const graph::NodeId v : members[r]) {
      if (r >= first) {
        hot[v].push_back(r);
        ++hot_postings;
      } else if (cold[v].empty() || cold[v].back() != r) {
        cold[v].push_back(r);
      }
    }
  }
  for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
    const auto hits = SpilledHits(store, v, members.size());
    ASSERT_EQ(hits.size(), cold[v].size()) << "node " << v;
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].first, cold[v][i]) << "node " << v;
      ASSERT_EQ(hits[i].second, members[cold[v][i]]) << "node " << v;
    }
    ASSERT_EQ(store.SetsContaining(v), hot[v]) << "node " << v;
  }
  const uint64_t index_bytes =
      (uint64_t{store.num_nodes()} + 1) * sizeof(uint64_t) +
      hot_postings * sizeof(uint32_t);
  EXPECT_EQ(store.IndexBytes(), index_bytes);
  EXPECT_EQ(store.MemoryBytes(),
            (members.size() - first + 1) * sizeof(uint64_t) +
                hot_postings * sizeof(graph::NodeId) + index_bytes +
                store.spill_file()->MetadataBytes());
}

// Cold-chunk postings are sliced out of the hot CSR and the evicted prefix
// trimmed off it: on random stores with repeated members, a growth batch
// after the first, evictions reaching into the growth batch, growth again
// after a trim and repeated evictions, at chunk targets of 1 B (one set
// per chunk) and 4 MiB (one chunk per eviction), serially and on a pool.
TEST(SpillEvictionOracleTest, SlicedChunksAndTrimmedIndexMatchMemberScan) {
  ThreadPool pool(4);
  struct Config {
    uint64_t target;
    graph::NodeId nodes;
    uint64_t sets;  // the first batch; growth batches follow
    ThreadPool* pool;
  };
  const Config configs[] = {{1, 100, 800, nullptr},
                            {1, 100, 800, &pool},
                            {4u << 20, 300, 12000, nullptr},
                            {4u << 20, 300, 12000, &pool}};
  for (const Config& cfg : configs) {
    SCOPED_TRACE(testing::Message() << "target " << cfg.target << ", "
                                    << (cfg.pool ? "pool" : "no pool"));
    Rng rng(cfg.sets + (cfg.pool ? 1 : 0));
    RrStore store(cfg.nodes);
    std::vector<std::vector<graph::NodeId>> members;
    AppendRandomSets(store, members, rng, cfg.sets, cfg.pool);
    AppendRandomSets(store, members, rng, cfg.sets / 10, cfg.pool);
    ASSERT_EQ(store.IndexBytes(),
              (uint64_t{cfg.nodes} + 1) * sizeof(uint64_t) +
                  store.PostingsInRange(0, store.num_sets()) *
                      sizeof(uint32_t))
        << "the growth batch must leave one exact-fit CSR";
    SpillOptions so;
    so.chunk_target_bytes = cfg.target;
    const uint64_t evictions[] = {cfg.sets / 3, cfg.sets + cfg.sets / 20};
    for (const uint64_t new_first : evictions) {
      SCOPED_TRACE(testing::Message() << "evict to " << new_first);
      store.SpillPrefix(new_first, so, cfg.pool);
      ASSERT_NO_FATAL_FAILURE(
          ExpectEvictedStoreMatchesMemberScan(store, members));
    }
    // Growth again after a trim, then evict through it to the end.
    AppendRandomSets(store, members, rng, cfg.sets / 20, cfg.pool);
    for (const uint64_t new_first :
         {store.num_sets() - cfg.sets / 40, store.num_sets()}) {
      SCOPED_TRACE(testing::Message() << "evict to " << new_first);
      store.SpillPrefix(new_first, so, cfg.pool);
      ASSERT_NO_FATAL_FAILURE(
          ExpectEvictedStoreMatchesMemberScan(store, members));
    }
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The slicing and the trim run over node ranges on the pool; whatever the
// pool, the chunk file must come out byte for byte the same and the hot
// index equal.
TEST(SpillEvictionDeterminismTest, ChunkFilesAndHotIndexIdenticalAcrossPools) {
  constexpr graph::NodeId kNodes = 2000;
  struct Outcome {
    std::string file;
    std::vector<std::vector<uint32_t>> hot;
    uint64_t memory_bytes = 0;
  };
  const auto spill = [&](uint32_t threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    Rng rng(77);
    RrStore store(kNodes);
    std::vector<std::vector<graph::NodeId>> members;
    AppendRandomSets(store, members, rng, 30000, pool.get());
    AppendRandomSets(store, members, rng, 2000, pool.get());  // growth
    SpillOptions so;
    so.chunk_target_bytes = 16u << 10;
    store.SpillPrefix(10000, so, pool.get());
    store.SpillPrefix(31000, so, pool.get());  // into the growth batch
    Outcome out;
    out.file = ReadFileBytes(store.spill_file()->path());
    for (graph::NodeId v = 0; v < kNodes; ++v) {
      out.hot.push_back(store.SetsContaining(v));
    }
    out.memory_bytes = store.MemoryBytes();
    return out;
  };
  const Outcome reference = spill(0);
  ASSERT_GT(reference.file.size(), 0u);
  for (const uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const Outcome got = spill(threads);
    EXPECT_TRUE(got.file == reference.file) << "chunk files differ";
    EXPECT_EQ(got.hot, reference.hot);
    EXPECT_EQ(got.memory_bytes, reference.memory_bytes);
  }
}

// A failing chunk write lands on the same chunk in every run: two 4-thread
// runs under the same write fault degrade the same store.
TEST(SpillEvictionDeterminismTest, WriteFaultDegradesTheSameStore) {
  SpillEndToEndFixture f;
  TiOptions options = f.BaseOptions();
  options.num_threads = 4;
  options.rr_memory_budget_bytes = 1;

  std::vector<uint64_t> events[2];
  for (std::vector<uint64_t>& run_events : events) {
    ASSERT_TRUE(FailPoints::Arm("spill.write.enospc@2").ok());
    auto run = RunTiGreedy(*f.instance, options);
    FailPoints::Clear();
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_GT(run.value().total_degradation_events, 0u);
    for (const auto& st : run.value().ad_stats) {
      run_events.push_back(st.degradation_events);
    }
  }
  EXPECT_EQ(events[0], events[1]);
}

}  // namespace
}  // namespace isa
