// Self-healing cold tier: a spilled RR set is logically a CACHE entry —
// set i is a pure function of (base_seed, i) — so a permanently failed
// chunk read is recovered by re-sampling the chunk's id range from its
// recorded provenance seed instead of aborting. This suite covers the
// recovery ladder rung by rung (transient retry → re-sample → fail-stop
// when recovery is impossible), the footer cross-check that rejects a
// wrong regeneration, the write-side degradation (ENOSPC disables
// eviction; the scheduler's admission policy caps θ-growth), and the
// acceptance gates: with a permanent cold-read fault injected on EVERY
// read, or on one postings read, or on one member read, RunTiGreedy
// completes with degradation_events > 0 and a TiResult whose computed
// fields are bit-identical to the fault-free run, at 1/2/8 threads.

#include <memory>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_store.h"
#include "rrset/spill_file.h"
#include "rrset/tiered_store.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa {
namespace {

using core::RmInstance;
using core::RunTiGreedy;
using core::TiOptions;
using core::TiResult;
using graph::Graph;
using rrset::ParallelSampler;
using rrset::ParallelSamplerOptions;
using rrset::RrStore;
using rrset::SpillIoError;
using rrset::SpillOptions;
using rrset::TieredRrStore;
using rrset::TieredStoreOptions;

struct FaultGuard {
  FaultGuard() { FailPoints::Clear(); }
  ~FaultGuard() { FailPoints::Clear(); }
};

Graph MakeBaGraph(graph::NodeId n, uint32_t m, uint64_t seed = 9) {
  graph::BarabasiAlbertOptions opts;
  opts.num_nodes = n;
  opts.edges_per_node = m;
  opts.seed = seed;
  auto g = graph::GenerateBarabasiAlbert(opts);
  ISA_CHECK(g.ok());
  return std::move(g).value();
}

constexpr uint64_t kSamplerSeed = 123;

ParallelSampler MakeSampler(const Graph& g, std::span<const double> probs,
                            uint32_t threads) {
  ParallelSamplerOptions opts;
  opts.num_threads = threads;
  opts.pool = test::SharedPool(threads);
  opts.min_sets_per_thread = 1;
  return ParallelSampler(g, probs, rrset::DiffusionModel::kIndependentCascade,
                         kSamplerSeed, opts);
}

// A spilled store plus the pre-spill ground truth to compare scans against.
struct SpilledStoreFixture {
  Graph g = MakeBaGraph(2000, 2);
  std::vector<double> probs = std::vector<double>(g.num_edges(), 0.05);
  RrStore store{g.num_nodes()};
  std::vector<std::vector<uint32_t>> expected;
  static constexpr uint64_t kSets = 3000;

  SpilledStoreFixture() {
    MakeSampler(g, probs, 1).SampleAppend(store, kSets);
    expected.resize(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      expected[v] = store.SetsContaining(v);
    }
    SpillOptions so;
    so.chunk_target_bytes = 4u << 10;  // many chunks
    store.SpillPrefix(kSets, so);
  }

  std::vector<uint32_t> Scan(graph::NodeId v) const {
    std::vector<uint32_t> got;
    store.ForEachSpilledSetContaining(
        v, kSets, {},
        [&](uint64_t r, std::span<const graph::NodeId>) {
          got.push_back(static_cast<uint32_t>(r));
        });
    return got;
  }
};

TEST(SpillRecoveryTest, PermanentReadFaultHealsBitIdenticalScan) {
  FaultGuard guard;
  SpilledStoreFixture f;
  f.store.SetResampler(test::IcResampler(f.g, f.probs));
  // EVERY disk read fails: the bounded retries cannot help, so every
  // consulted chunk must be rebuilt by re-sampling — and the lookup
  // results must not change by a single set id.
  ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
  for (graph::NodeId v = 0; v < f.g.num_nodes(); v += 13) {
    ASSERT_EQ(f.Scan(v), f.expected[v]) << "node " << v;
  }
  EXPECT_GT(f.store.degradation_events(), 0u);
  EXPECT_GT(f.store.recovered_sets(), 0u);
  const uint64_t recoveries = f.store.degradation_events();

  // Disarm and scan again: recovered chunks are served from the resident
  // cache (never re-read, never re-recovered), still bit-identical.
  FailPoints::Clear();
  for (graph::NodeId v = 0; v < f.g.num_nodes(); v += 13) {
    ASSERT_EQ(f.Scan(v), f.expected[v]) << "node " << v;
  }
  EXPECT_EQ(f.store.degradation_events(), recoveries);
}

TEST(SpillRecoveryTest, TransientReadFaultRetriesWithoutDegradation) {
  FaultGuard guard;
  SpilledStoreFixture f;
  // One EAGAIN on the first read: the bounded-retry layer must absorb it
  // with no degradation and no resampler installed.
  ASSERT_TRUE(FailPoints::Arm("spill.read.eagain@1").ok());
  for (graph::NodeId v = 0; v < f.g.num_nodes(); v += 13) {
    ASSERT_EQ(f.Scan(v), f.expected[v]) << "node " << v;
  }
  EXPECT_GT(f.store.spill_retries(), 0u);
  EXPECT_GT(f.store.spill_retry_successes(), 0u);
  EXPECT_EQ(f.store.degradation_events(), 0u);
  EXPECT_EQ(f.store.recovered_sets(), 0u);
}

TEST(SpillRecoveryTest, TransientFaultHealsByRereadWithoutResample) {
  FaultGuard guard;
  SpilledStoreFixture f;
  // No resampler installed, and every targeted read after the first —
  // postings offsets, set-index slices, member offsets, members — fails
  // on its first attempt: re-reading must heal each one on its own,
  // without any chunk falling through to re-sampling.
  ASSERT_TRUE(FailPoints::Arm("spill.read.eagain@every:2").ok());
  for (graph::NodeId v = 0; v < f.g.num_nodes(); v += 97) {
    ASSERT_EQ(f.Scan(v), f.expected[v]) << "node " << v;
  }
  EXPECT_GT(f.store.spill_retry_successes(), f.store.chunks_read());
  EXPECT_EQ(f.store.spill_retries(), f.store.spill_retry_successes());
  EXPECT_EQ(f.store.degradation_events(), 0u);
  EXPECT_EQ(f.store.recovered_sets(), 0u);
}

TEST(SpillRecoveryTest, NoResamplerMeansFailStop) {
  FaultGuard guard;
  SpilledStoreFixture f;
  // Without provenance-based recovery installed the pre-existing contract
  // holds: a permanent read failure surfaces as SpillIoError.
  ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
  EXPECT_THROW(f.Scan(0), SpillIoError);
}

TEST(SpillRecoveryTest, CorruptResampleIsRejectedByFooterCheck) {
  FaultGuard guard;
  SpilledStoreFixture f;
  // A resampler that regenerates the wrong content (here: all-empty sets)
  // must be caught by the footer cross-check, not silently served.
  f.store.SetResampler([](uint64_t, uint64_t lo, uint64_t hi,
                          std::vector<uint32_t>* sizes,
                          std::vector<graph::NodeId>* nodes) {
    sizes->assign(static_cast<size_t>(hi - lo), 0);
    nodes->clear();
  });
  ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
  EXPECT_THROW(f.Scan(0), SpillIoError);
  EXPECT_EQ(f.store.recovered_sets(), 0u);
}

TEST(SpillRecoveryTest, DoubleFaultOnResampleFailsStop) {
  FaultGuard guard;
  SpilledStoreFixture f;
  f.store.SetResampler(test::IcResampler(f.g, f.probs));
  // Read fails AND the recovery path fails (disk full while paging the
  // regeneration, say): clean SpillIoError, no partial recovery state.
  ASSERT_TRUE(
      FailPoints::Arm("spill.read.eio@every:1,spill.resample.enospc@1").ok());
  EXPECT_THROW(f.Scan(0), SpillIoError);
  EXPECT_EQ(f.store.recovered_sets(), 0u);
}

TEST(SpillRecoveryTest, WriteFaultDisablesEvictionAndKeepsStoreConsistent) {
  FaultGuard guard;
  SpilledStoreFixture f;  // reuse the sampling recipe, but spill via a tier
  RrStore store(f.g.num_nodes());
  MakeSampler(f.g, f.probs, 1).SampleAppend(store, f.kSets);
  auto shared = std::shared_ptr<RrStore>(&store, [](RrStore*) {});
  TieredStoreOptions to;
  to.rr_memory_budget_bytes = 1;  // force an eviction attempt
  to.chunk_target_bytes = 4u << 10;
  TieredRrStore tier(shared, to);
  ASSERT_TRUE(FailPoints::Arm("spill.write.enospc@1").ok());
  tier.MaybeSpill(f.kSets);  // must NOT throw
  EXPECT_TRUE(tier.eviction_disabled());
  EXPECT_EQ(tier.degradation_events(), 1u);
  // The mid-eviction failure left the resident state untouched.
  EXPECT_EQ(store.first_resident_set(), 0u);
  for (graph::NodeId v = 0; v < f.g.num_nodes(); v += 131) {
    EXPECT_EQ(store.SetsContaining(v), f.expected[v]) << "node " << v;
  }
  // Further barriers are no-ops, not repeated write attempts.
  tier.MaybeSpill(f.kSets);
  EXPECT_EQ(tier.degradation_events(), 1u);
}

// ------------------------------------------------------------ end to end

struct RecoveryEndToEndFixture {
  Graph g = MakeBaGraph(150, 9);
  std::unique_ptr<RmInstance> instance;

  RecoveryEndToEndFixture() {
    auto topics =
        test::RegimeTopics(g, graph::WeightingRegime::kUniformIc, 1, 0.8);
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

  TiOptions BudgetedOptions() const {
    TiOptions options;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.theta_cap = 200'000;
    options.num_threads = 2;
    options.rr_memory_budget_bytes = 1;  // spill + rescan constantly
    return options;
  }
};

void ExpectSameComputedResult(const TiResult& a, const TiResult& b) {
  EXPECT_EQ(a.allocation.seed_sets, b.allocation.seed_sets);
  EXPECT_EQ(a.total_revenue, b.total_revenue);  // bitwise
  EXPECT_EQ(a.total_seeding_cost, b.total_seeding_cost);
  EXPECT_EQ(a.total_seeds, b.total_seeds);
  EXPECT_EQ(a.total_theta, b.total_theta);
  EXPECT_EQ(a.total_growth_events, b.total_growth_events);
}

// The acceptance gate: permanent cold-read faults on every read, at 1/2/8
// threads — the run completes, the counters report the recoveries, and
// the computed TiResult is bit-identical to the fault-free run.
TEST(SpillRecoveryEndToEndTest, FaultedRunBitIdenticalAcrossThreads) {
  FaultGuard guard;
  RecoveryEndToEndFixture f;
  auto clean = RunTiGreedy(*f.instance, f.BudgetedOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  ASSERT_GT(clean.value().total_seeds, 0u);
  ASSERT_EQ(clean.value().total_degradation_events, 0u);

  for (uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    TiOptions options = f.BudgetedOptions();
    options.num_threads = threads;
    FailPoints::Clear();
    ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
    auto faulted = RunTiGreedy(*f.instance, options);
    FailPoints::Clear();
    ASSERT_TRUE(faulted.ok()) << faulted.status().message();
    ExpectSameComputedResult(clean.value(), faulted.value());
    EXPECT_GT(faulted.value().total_degradation_events, 0u);
    EXPECT_GT(faulted.value().total_recovered_sets, 0u);
  }
}

// One permanent fault on a single targeted read, at 1/2/8 threads. Every
// cold read of a run belongs to a lookup, and the fixture's 1-byte budget
// spills each store's whole adopted sample into one chunk before the first
// commit, so the first commit's lookup reads, in order: (1) the seed's
// postings offsets, (2) its postings slice, (3) the first alive set's
// member offsets, (4) that set's members. `spec` faults one of them; the
// chunk must be rebuilt by re-sampling with the result unchanged.
void ExpectSingleReadFaultHeals(const std::string& spec) {
  RecoveryEndToEndFixture f;
  auto clean = RunTiGreedy(*f.instance, f.BudgetedOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  for (uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << spec << ", " << threads << " threads");
    TiOptions options = f.BudgetedOptions();
    options.num_threads = threads;
    FailPoints::Clear();
    ASSERT_TRUE(FailPoints::Arm(spec).ok());
    auto faulted = RunTiGreedy(*f.instance, options);
    const uint64_t fires = FailPoints::TotalFires();
    FailPoints::Clear();
    ASSERT_TRUE(faulted.ok()) << faulted.status().message();
    EXPECT_EQ(fires, 1u);
    ExpectSameComputedResult(clean.value(), faulted.value());
    EXPECT_GT(faulted.value().total_degradation_events, 0u);
    EXPECT_GT(faulted.value().total_recovered_sets, 0u);
  }
}

TEST(SpillRecoveryEndToEndTest, PostingsReadFaultHealsBitIdentical) {
  FaultGuard guard;
  ExpectSingleReadFaultHeals("spill.read.eio@1");  // postings offsets
  ExpectSingleReadFaultHeals("spill.read.eio@2");  // postings slice
}

TEST(SpillRecoveryEndToEndTest, MemberReadFaultHealsBitIdentical) {
  FaultGuard guard;
  ExpectSingleReadFaultHeals("spill.read.eio@3");  // member offsets
  ExpectSingleReadFaultHeals("spill.read.eio@4");  // members
}

TEST(SpillRecoveryEndToEndTest, EnospcDegradedRunCompletesWithAdmissionCaps) {
  FaultGuard guard;
  RecoveryEndToEndFixture f;
  auto clean = RunTiGreedy(*f.instance, f.BudgetedOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().message();

  // The very first spill write hits ENOSPC: that store's tier disables
  // eviction at the first barrier and the run finishes resident, with the
  // scheduler vetoing θ-growth while the store sits over its (1-byte)
  // budget. Degraded-mode results may legitimately differ from the clean
  // run — the contract is completion plus honest counters.
  ASSERT_TRUE(FailPoints::Arm("spill.write.enospc@1").ok());
  auto degraded = RunTiGreedy(*f.instance, f.BudgetedOptions());
  FailPoints::Clear();
  ASSERT_TRUE(degraded.ok()) << degraded.status().message();
  EXPECT_GT(degraded.value().total_seeds, 0u);
  EXPECT_GT(degraded.value().total_degradation_events, 0u);
  if (clean.value().total_growth_events > 0) {
    EXPECT_GT(degraded.value().total_growth_admission_caps, 0u);
  }
}

TEST(SpillRecoveryEndToEndTest, CombinedReadAndWriteFaultsStillComplete) {
  FaultGuard guard;
  RecoveryEndToEndFixture f;
  // Reads keep failing permanently while one late spill write also dies:
  // read-side recovery and write-side degradation compose.
  ASSERT_TRUE(
      FailPoints::Arm("spill.read.eio@every:1,spill.write.enospc@4").ok());
  auto run = RunTiGreedy(*f.instance, f.BudgetedOptions());
  FailPoints::Clear();
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_GT(run.value().total_seeds, 0u);
  EXPECT_GT(run.value().total_degradation_events, 0u);
}

TEST(SpillRecoveryEndToEndTest, PoolAllocFaultSurfacesAsResourceExhausted) {
  FaultGuard guard;
  RecoveryEndToEndFixture f;
  ASSERT_TRUE(FailPoints::Arm("pool.alloc.throw@1").ok());
  auto run = RunTiGreedy(*f.instance, f.BudgetedOptions());
  FailPoints::Clear();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

TEST(SpillRecoveryEndToEndTest, SamplerAllocFaultSurfacesAsResourceExhausted) {
  FaultGuard guard;
  RecoveryEndToEndFixture f;
  // The sampler.alloc site sits in ParallelSampler::SampleToBuffer, which
  // every store's KPT pilot and every engine's initial θ(1) sample reach,
  // so the first hit always fires.
  ASSERT_TRUE(FailPoints::Arm("sampler.alloc.throw@1").ok());
  auto run = RunTiGreedy(*f.instance, f.BudgetedOptions());
  const uint64_t fires = FailPoints::TotalFires();
  FailPoints::Clear();
  EXPECT_GT(fires, 0u);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace isa
