// The cold-tier read path of the out-of-core RR store: exclusive
// spill-file creation (no truncation/symlink following), the per-chunk
// postings lookup (exact against a brute-force scan of every chunk, with
// absent nodes answered without reading any member), the lookup counters,
// coverage removal over re-sampled chunks cached in memory (identical to
// removal over disk reads), fault injection via the FailPoints registry (truncation/EOF is
// a permanent unit-level SpillIoError; a permanent cold-read fault mid-run
// is RECOVERED by re-sampling, a spill-write ENOSPC degrades to resident
// completion, and only an unrecoverable double fault still surfaces as
// Status::ResourceExhausted), and the end-to-end invariant: a fixed seed
// yields a bit-identical TiResult under a memory budget at 1/2/8 threads.
// Recovery bit-identity and the failure counters are covered in depth by
// spill_recovery_test.cc.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

#include "common/failpoint.h"
#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_store.h"
#include "rrset/spill_file.h"
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
using rrset::RrCollection;
using rrset::RrStore;
using rrset::SpillFile;
using rrset::SpillIoError;
using rrset::SpillOptions;

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
  return ::lstat(path.c_str(), &st) == 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Disarms every failpoint no matter how a test exits.
struct IoStateGuard {
  ~IoStateGuard() { FailPoints::Clear(); }
};

// ------------------------------------------------ exclusive file creation

TEST(SpillHardeningTest, ExclusiveCreateNeverTruncatesExistingFile) {
  const std::string path = rrset::MakeSpillPath();
  {
    std::ofstream out(path, std::ios::binary);
    out << "precious bytes";
  }
  std::string actual_path;
  {
    SpillFile file(path);
    // The constructor must step aside, not truncate: the pre-existing
    // file keeps its bytes and the spill lands under a fresh suffix.
    EXPECT_NE(file.path(), path);
    actual_path = file.path();
    EXPECT_TRUE(FileExists(actual_path));
    const std::vector<uint32_t> sizes = {2};
    const std::vector<graph::NodeId> nodes = {4, 5};
    file.AppendChunk(0, 1, sizes, nodes,
                     test::BruteForceChunkIndex(sizes, nodes));
    std::vector<uint32_t> rs;
    std::vector<graph::NodeId> rn;
    file.ReadChunk(0, &rs, &rn);
    EXPECT_EQ(rn, nodes);
  }
  // The destructor removes only its own file.
  EXPECT_FALSE(FileExists(actual_path));
  EXPECT_EQ(ReadFile(path), "precious bytes");
  ::unlink(path.c_str());
}

TEST(SpillHardeningTest, SymlinkAtSpillPathIsNotFollowed) {
  const std::string target = rrset::MakeSpillPath();
  {
    std::ofstream out(target, std::ios::binary);
    out << "victim contents";
  }
  const std::string link = rrset::MakeSpillPath();
  ASSERT_EQ(::symlink(target.c_str(), link.c_str()), 0);
  {
    SpillFile file(link);
    EXPECT_NE(file.path(), link);
    EXPECT_NE(file.path(), target);
    const std::vector<uint32_t> sizes = {1};
    const std::vector<graph::NodeId> nodes = {7};
    file.AppendChunk(0, 1, sizes, nodes,
                     test::BruteForceChunkIndex(sizes, nodes));
  }
  // Neither the symlink nor its target was written through or removed.
  EXPECT_TRUE(FileExists(link));
  EXPECT_EQ(ReadFile(target), "victim contents");
  ::unlink(link.c_str());
  ::unlink(target.c_str());
}

// ------------------------------------------------- per-chunk postings

// The chunk-local sets containing v, by brute force over ReadChunk's
// columns: the reference the postings lookup must reproduce exactly.
std::vector<uint32_t> BruteForceSets(const SpillFile& file, size_t chunk,
                                     graph::NodeId v) {
  std::vector<uint32_t> sizes;
  std::vector<graph::NodeId> nodes;
  file.ReadChunk(chunk, &sizes, &nodes);
  std::vector<uint32_t> out;
  auto begin = nodes.begin();
  for (uint32_t k = 0; k < sizes.size(); ++k) {
    const auto end = begin + sizes[k];
    if (std::find(begin, end, v) != end) out.push_back(k);
    begin = end;
  }
  return out;
}

// Checks SetsContaining(chunk, v) against the brute force for every chunk
// and every node (plus one past the largest). Where v is absent the lookup
// must end after at most the index-offsets read — it still succeeds with a
// fault armed on the second read, so no member is ever read — and a v
// outside the envelope must not read at all.
void ExpectExactPostings(const SpillFile& file, graph::NodeId num_nodes) {
  std::vector<uint32_t> got;
  for (size_t c = 0; c < file.num_chunks(); ++c) {
    const SpillFile::ChunkMeta& m = file.chunks()[c];
    for (graph::NodeId v = 0; v <= num_nodes; ++v) {
      const std::vector<uint32_t> want = BruteForceSets(file, c, v);
      if (!want.empty()) {
        file.SetsContaining(c, v, &got);
        ASSERT_EQ(got, want) << "chunk " << c << " node " << v;
        continue;
      }
      const bool in_envelope =
          m.postings > 0 && v >= m.node_min && v <= m.node_max;
      ASSERT_TRUE(FailPoints::Arm(in_envelope ? "spill.read.eio@2"
                                              : "spill.read.eio@1")
                      .ok());
      file.SetsContaining(c, v, &got);
      FailPoints::Clear();
      ASSERT_TRUE(got.empty()) << "chunk " << c << " node " << v;
    }
  }
}

// Sampled RR sets plus one set that repeats a member (indexed once).
struct SampledSets {
  graph::NodeId num_nodes = 0;
  std::vector<uint32_t> sizes;
  std::vector<graph::NodeId> nodes;
  std::vector<uint64_t> offsets;  // per set, into nodes; size = sets + 1

  SampledSets(const Graph& g, uint64_t count) : num_nodes(g.num_nodes()) {
    const std::vector<double> probs(g.num_edges(), 0.1);
    MakeSampler(g, probs, 1).SampleToBuffer(0, count, &nodes, &sizes);
    sizes.push_back(3);
    nodes.insert(nodes.end(), {3, 3, 7});
    offsets.push_back(0);
    for (uint32_t size : sizes) offsets.push_back(offsets.back() + size);
  }
  uint32_t NumSets() const { return static_cast<uint32_t>(sizes.size()); }
  // Appends sets [lo, hi) as one chunk.
  void Append(SpillFile& file, uint32_t lo, uint32_t hi) const {
    const std::span<const uint32_t> chunk_sizes(sizes.data() + lo, hi - lo);
    const std::span<const graph::NodeId> chunk_nodes(
        nodes.data() + offsets[lo], offsets[hi] - offsets[lo]);
    file.AppendChunk(lo, hi, chunk_sizes, chunk_nodes,
                     test::BruteForceChunkIndex(chunk_sizes, chunk_nodes));
  }
};

TEST(SpillPostingsTest, LookupMatchesBruteForceForEveryNodeAndChunk) {
  IoStateGuard guard;
  const Graph g = MakeBaGraph(300, 3);
  const SampledSets sets(g, 600);
  const uint32_t n = sets.NumSets();

  // Dense layout: consecutive id ranges of 64 sets.
  {
    SCOPED_TRACE("dense");
    SpillFile file(rrset::MakeSpillPath());
    for (uint32_t lo = 0; lo < n; lo += 64) {
      sets.Append(file, lo, std::min(n, lo + 64));
    }
    ExpectExactPostings(file, sets.num_nodes);
  }
  // The degenerate one-set-per-chunk target.
  {
    SCOPED_TRACE("one set per chunk");
    SpillFile file(rrset::MakeSpillPath());
    for (uint32_t id = 0; id < 120; ++id) {
      sets.Append(file, id, id + 1);
    }
    ExpectExactPostings(file, sets.num_nodes);
  }
}

// ------------------------------------------------- scan counters + skips

TEST(SpillLookupTest, ScanCountersPartitionConsideredChunks) {
  // A graph much larger than a chunk's distinct-member reach, so most
  // chunks genuinely lack most nodes and the lookups have real skips to
  // find.
  const Graph g = MakeBaGraph(2000, 2);
  const std::vector<double> probs(g.num_edges(), 0.05);
  RrStore store(g.num_nodes());
  MakeSampler(g, probs, 1).SampleAppend(store, 3000);
  std::vector<std::vector<uint32_t>> expected(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    expected[v] = store.SetsContaining(v);
  }
  SpillOptions so;
  so.chunk_target_bytes = 4u << 10;
  store.SpillPrefix(3000, so);
  const uint64_t num_chunks = store.SpillChunks();
  ASSERT_GT(num_chunks, 4u);

  uint64_t scans = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); v += 13) {
    const uint64_t reloads0 = store.scan_reloads();
    const uint64_t read0 = store.chunks_read();
    const uint64_t skip0 = store.chunks_skipped();
    std::vector<uint32_t> got;
    store.ForEachSpilledSetContaining(
        v, 3000, {},
        [&](uint64_t r, std::span<const graph::NodeId>) {
          got.push_back(static_cast<uint32_t>(r));
        });
    // Chunks tile ascending id ranges, so the hits arrive strictly
    // ascending — the same sequence the hot index gave before the spill.
    ASSERT_EQ(std::adjacent_find(got.begin(), got.end(),
                                 std::greater_equal<uint32_t>()),
              got.end())
        << "node " << v;
    EXPECT_EQ(got, expected[v]) << "node " << v;
    ++scans;
    // Every spilled chunk overlaps [0, 3000): each scan considers all of
    // them, and read/skipped partition exactly that set.
    EXPECT_EQ(store.scan_reloads(), reloads0 + 1);
    EXPECT_EQ((store.chunks_read() - read0) + (store.chunks_skipped() - skip0),
              num_chunks);
  }
  EXPECT_EQ(store.scan_reloads(), scans);
  // The lookups must be earning skips on this fixture (most nodes are
  // absent from most chunks), while every emitted hit above proves reads
  // were never skipped wrongly.
  EXPECT_GT(store.chunks_skipped(), 0u);
  EXPECT_GT(store.chunks_read(), 0u);
}

// ------------------------------------- resident cached chunks = disk

// A chunk healed by re-sampling stays resident, and later lookups scan its
// cached members instead of reading postings from disk. Coverage removal
// over a store whose every spilled chunk is already in memory that way
// must match removal over plain targeted reads, seed for seed — and must
// not touch the disk again.
TEST(SpillLookupTest, CachedChunkRemoveCoveredByMatchesPlain) {
  IoStateGuard guard;
  const Graph g = MakeBaGraph(300, 3);
  const std::vector<double> probs(g.num_edges(), 0.1);

  RrCollection plain(g.num_nodes());
  RrCollection from_cache(g.num_nodes());
  {
    ParallelSampler s1 = MakeSampler(g, probs, 1);
    plain.AddSets(s1, 3000, {});
  }
  {
    ParallelSampler s2 = MakeSampler(g, probs, 1);
    from_cache.AddSets(s2, 3000, {});
  }
  SpillOptions so;
  so.chunk_target_bytes = 1u << 13;
  plain.store()->SpillPrefix(1500, so);
  from_cache.store()->SpillPrefix(1500, so);

  // With every disk read failing, a lookup re-samples each chunk it
  // consults into the resident cache; one lookup per node consults all.
  RrStore& cached = *from_cache.store();
  cached.SetResampler(test::IcResampler(g, probs));
  ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    cached.ForEachSpilledSetContaining(
        v, 1500, {}, [](uint64_t, std::span<const graph::NodeId>) {});
  }
  FailPoints::Clear();
  const uint64_t recoveries = cached.degradation_events();
  ASSERT_EQ(recoveries, cached.SpillChunks());

  std::vector<graph::NodeId> touched_a, touched_b;
  for (const graph::NodeId seed : {7u, 42u, 199u, 42u, 0u, 250u}) {
    const uint32_t removed_a = plain.RemoveCoveredBy(seed, &touched_a);
    // Any disk read from the cached store would now fail and re-sample.
    ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
    const uint32_t removed_b = from_cache.RemoveCoveredBy(seed, &touched_b);
    FailPoints::Clear();
    ASSERT_EQ(removed_a, removed_b) << "seed " << seed;
    ASSERT_EQ(touched_a, touched_b) << "seed " << seed;
    ASSERT_EQ(plain.covered_sets(), from_cache.covered_sets());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(plain.CoverageOf(v), from_cache.CoverageOf(v))
          << "seed " << seed << " node " << v;
    }
  }
  EXPECT_EQ(cached.degradation_events(), recoveries);
  EXPECT_EQ(plain.store()->degradation_events(), 0u);
  EXPECT_GT(plain.store()->chunks_read(), 0u);
}

// --------------------------------------------------------- fault injection

TEST(SpillFaultTest, TruncatedFileSurfacesEof) {
  IoStateGuard guard;
  SpillFile file(rrset::MakeSpillPath());
  const std::vector<uint32_t> sizes = {2, 1};
  const std::vector<graph::NodeId> nodes = {1, 2, 3};
  file.AppendChunk(0, 2, sizes, nodes,
                   test::BruteForceChunkIndex(sizes, nodes));
  file.AppendChunk(2, 4, sizes, nodes,
                   test::BruteForceChunkIndex(sizes, nodes));
  // Cut into the SECOND chunk's columns: chunk 0 still reads fine, every
  // read of chunk 1 comes up short and must surface as SpillIoError
  // (unexpected EOF), not as silent truncation.
  ASSERT_EQ(::truncate(file.path().c_str(),
                       static_cast<off_t>(file.chunks()[1].file_offset + 4)),
            0);
  std::vector<uint32_t> local;
  file.SetsContaining(0, 2, &local);
  EXPECT_EQ(local, std::vector<uint32_t>{0});
  EXPECT_THROW(file.SetsContaining(1, 2, &local), SpillIoError);
  std::vector<graph::NodeId> members;
  EXPECT_THROW(file.AppendSetMembers(1, 0, &members), SpillIoError);
  std::vector<uint32_t> rs;
  std::vector<graph::NodeId> rn;
  file.ReadChunk(0, &rs, &rn);
  EXPECT_EQ(rn, nodes);
  EXPECT_THROW(file.ReadChunk(1, &rs, &rn), SpillIoError);
}

TEST(SpillFaultTest, InjectedReadErrorSurfacesAsSpillIoError) {
  IoStateGuard guard;
  SpillFile file(rrset::MakeSpillPath());
  const std::vector<uint32_t> sizes = {1};
  const std::vector<graph::NodeId> nodes = {9};
  file.AppendChunk(0, 1, sizes, nodes,
                   test::BruteForceChunkIndex(sizes, nodes));
  // Raw SpillFile reads have no re-sampling fallback: a permanent EIO
  // (injected on every read so the retry path cannot sidestep it) must
  // surface as SpillIoError from every read path.
  ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
  std::vector<uint32_t> local;
  EXPECT_THROW(file.SetsContaining(0, 9, &local), SpillIoError);
  std::vector<graph::NodeId> members;
  EXPECT_THROW(file.AppendSetMembers(0, 0, &members), SpillIoError);
  std::vector<uint32_t> rs;
  std::vector<graph::NodeId> rn;
  EXPECT_THROW(file.ReadChunk(0, &rs, &rn), SpillIoError);
  FailPoints::Clear();
}

// The driver contract: permanent cold-tier faults mid-run DEGRADE instead
// of aborting — lost chunks are re-sampled from their recorded substream
// seeds (read side), a failed spill write disables eviction and the run
// finishes resident (write side). Only an unrecoverable double fault
// still surfaces as Status::ResourceExhausted, never as a crash or a
// silently wrong result.
struct SpillFaultEndToEndFixture {
  Graph g = MakeBaGraph(150, 9);
  std::unique_ptr<RmInstance> instance;

  SpillFaultEndToEndFixture() {
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

TEST(SpillFaultTest, ReadErrorIsRecoveredByResampling) {
  IoStateGuard guard;
  SpillFaultEndToEndFixture f;
  // EVERY cold read fails with EIO — the per-chunk re-read fallback can
  // never sidestep the fault, so every consulted chunk is rebuilt by
  // re-sampling. The run must complete and say so in the counters
  // (bit-identity with the fault-free run is spill_recovery_test.cc's
  // job).
  ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
  auto run = RunTiGreedy(*f.instance, f.BudgetedOptions());
  FailPoints::Clear();
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_GT(run.value().total_degradation_events, 0u);
  EXPECT_GT(run.value().total_recovered_sets, 0u);
}

TEST(SpillFaultTest, UnrecoverableReadErrorSurfacesAsResourceExhausted) {
  IoStateGuard guard;
  SpillFaultEndToEndFixture f;
  // Double fault: the cold read fails AND the re-sample recovery path
  // fails. The original fail-stop contract still holds.
  ASSERT_TRUE(
      FailPoints::Arm("spill.read.eio@every:1,spill.resample.throw@1").ok());
  auto run = RunTiGreedy(*f.instance, f.BudgetedOptions());
  FailPoints::Clear();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

TEST(SpillFaultTest, EnospcOnSpillWriteDegradesToResidentCompletion) {
  IoStateGuard guard;
  SpillFaultEndToEndFixture f;
  // The 3rd spill write fails with ENOSPC: that store's tier disables
  // eviction and the run finishes resident instead of aborting.
  ASSERT_TRUE(FailPoints::Arm("spill.write.enospc@3").ok());
  auto run = RunTiGreedy(*f.instance, f.BudgetedOptions());
  FailPoints::Clear();
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_GT(run.value().total_degradation_events, 0u);
}

// ------------------------------------------------ end-to-end bit identity

// The acceptance gate: a budgeted run at 1/2/8 threads is bit-identical
// to the unbudgeted single-thread reference.
TEST(SpillLookupTest, TiResultBitIdenticalAcrossThreads) {
  IoStateGuard guard;
  SpillFaultEndToEndFixture f;
  TiOptions options = f.BudgetedOptions();
  options.rr_memory_budget_bytes = 0;
  options.num_threads = 1;
  auto unbudgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(unbudgeted.ok());
  const TiResult& reference = unbudgeted.value();
  ASSERT_GT(reference.total_seeds, 0u);
  uint64_t max_store_bytes = 0;
  for (const auto& st : reference.ad_stats) {
    max_store_bytes = std::max(max_store_bytes, st.rr_memory_bytes);
  }
  options.rr_memory_budget_bytes = max_store_bytes / 2;
  options.spill_chunk_bytes = 16u << 10;  // several chunks per spill

  for (uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    options.num_threads = threads;
    auto budgeted = RunTiGreedy(*f.instance, options);
    ASSERT_TRUE(budgeted.ok()) << budgeted.status().message();
    const TiResult& r = budgeted.value();
    EXPECT_EQ(reference.allocation.seed_sets, r.allocation.seed_sets);
    EXPECT_EQ(reference.total_revenue, r.total_revenue);  // bitwise
    EXPECT_EQ(reference.total_seeding_cost, r.total_seeding_cost);
    EXPECT_EQ(reference.total_seeds, r.total_seeds);
    EXPECT_EQ(reference.total_theta, r.total_theta);
    EXPECT_EQ(reference.total_growth_events, r.total_growth_events);
    // The run must exercise the cold tier for the comparison to mean
    // anything: chunks were read, and the budget genuinely bit.
    EXPECT_GT(r.total_spilled_bytes, 0u);
    EXPECT_GT(r.total_scan_reloads, 0u);
    EXPECT_GT(r.total_chunks_read, 0u);
  }
}

}  // namespace
}  // namespace isa
