// The staged selection engine (core/advertiser_engine.h and the round
// loop in core/ti_greedy.cc): incremental lazy-heap repair must agree
// with a from-scratch rebuild after arbitrary adopt/remove sequences, the
// coverage-delta reporting must match brute-force diffs, and θ-growth
// must preserve the hard invariant — fixed seed ⇒ bit-identical TiResult
// at any thread count.

#include "core/advertiser_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa::core {
namespace {

using graph::Graph;
using rrset::ParallelSampler;
using rrset::ParallelSamplerOptions;

Graph MakeBaGraph(graph::NodeId n = 250, uint64_t seed = 9) {
  graph::BarabasiAlbertOptions opts;
  opts.num_nodes = n;
  opts.edges_per_node = 3;
  opts.seed = seed;
  auto g = graph::GenerateBarabasiAlbert(opts);
  ISA_CHECK(g.ok());
  return std::move(g).value();
}

ParallelSampler MakeSampler(const Graph& g, std::span<const double> probs,
                            uint64_t seed = 321) {
  ParallelSamplerOptions opts;
  opts.num_threads = 1;
  return ParallelSampler(g, probs, rrset::DiffusionModel::kIndependentCascade,
                         seed, opts);
}

// Brute-force expected delta: nodes whose coverage changed between two
// snapshots, ascending.
std::vector<graph::NodeId> CoverageDiff(const std::vector<uint32_t>& before,
                                        const rrset::RrCollection& col) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v = 0; v < before.size(); ++v) {
    if (col.CoverageOf(v) != before[v]) out.push_back(v);
  }
  return out;
}

std::vector<uint32_t> CoverageSnapshot(const rrset::RrCollection& col,
                                       graph::NodeId n) {
  std::vector<uint32_t> cov(n);
  for (graph::NodeId v = 0; v < n; ++v) cov[v] = col.CoverageOf(v);
  return cov;
}

TEST(CoverageDeltaTest, AdoptionReportsExactlyTheIncreasedNodes) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.1);
  ParallelSampler sampler = MakeSampler(g, probs);
  rrset::RrCollection col(g.num_nodes());

  std::vector<graph::NodeId> touched;
  std::vector<graph::NodeId> seeds;
  for (uint64_t batch : {400ull, 1ull, 37ull, 900ull}) {
    const auto before = CoverageSnapshot(col, g.num_nodes());
    col.AddSets(sampler, batch, seeds, &touched);
    EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
    EXPECT_EQ(touched, CoverageDiff(before, col)) << "batch " << batch;
    // Seed a node so later adoptions also exercise the covered-on-adopt
    // path (covered sets must not contribute deltas).
    if (seeds.empty()) seeds.push_back(touched.front());
  }
}

TEST(CoverageDeltaTest, RemovalReportsExactlyTheDecreasedNodes) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.12);
  ParallelSampler sampler = MakeSampler(g, probs);
  rrset::RrCollection col(g.num_nodes());
  col.AddSets(sampler, 1500, {});

  Rng rng(77);
  std::vector<graph::NodeId> touched;
  for (int i = 0; i < 20; ++i) {
    const graph::NodeId v =
        static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
    const auto before = CoverageSnapshot(col, g.num_nodes());
    const uint32_t removed = col.RemoveCoveredBy(v, &touched);
    EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
    EXPECT_EQ(touched, CoverageDiff(before, col)) << "pick " << i;
    if (removed == 0) EXPECT_TRUE(touched.empty());
  }
}

TEST(CoverageDeltaTest, ShardedAdoptionDeltasMatchSerial) {
  const Graph g = MakeBaGraph(400);
  const std::vector<double> probs(g.num_edges(), 0.2);
  constexpr uint64_t kSets = 30'000;  // enough postings to shard adoption

  rrset::RrCollection serial(g.num_nodes());
  std::vector<graph::NodeId> serial_touched;
  ParallelSampler s1 = MakeSampler(g, probs, 555);
  serial.AddSets(s1, kSets, {}, &serial_touched);

  ThreadPool pool(8);
  ParallelSamplerOptions opts;
  opts.num_threads = 8;
  opts.min_sets_per_thread = 1;
  opts.pool = &pool;
  ParallelSampler s8(g, probs, rrset::DiffusionModel::kIndependentCascade,
                     555, opts);
  rrset::RrCollection parallel(g.num_nodes());
  std::vector<graph::NodeId> parallel_touched;
  parallel.AddSets(s8, kSets, {}, &parallel_touched);

  EXPECT_EQ(serial_touched, parallel_touched);
}

// Randomized adopt/remove sequences: after every operation, the settled
// top of the incrementally repaired heap must equal the settled top of a
// heap rebuilt from scratch — for both key shapes.
class HeapRepairCrossCheck : public ::testing::TestWithParam<bool> {};

TEST_P(HeapRepairCrossCheck, IncrementalMatchesRebuildTop) {
  const bool ratio_keyed = GetParam();
  const Graph g = MakeBaGraph(300, 11);
  const std::vector<double> probs(g.num_edges(), 0.1);
  std::vector<double> costs(g.num_nodes());
  Rng cost_rng(5);
  for (double& c : costs) c = 0.5 + 2.0 * cost_rng.NextDouble();
  costs[7] = 0.0;  // exercise the zero-cost cross-multiplied compare

  ParallelSampler sampler = MakeSampler(g, probs, 99);
  rrset::RrCollection col(g.num_nodes());
  std::vector<uint8_t> eligible(g.num_nodes(), 1);

  CoverageHeap inc;
  inc.Configure(ratio_keyed, costs);
  std::vector<graph::NodeId> touched;
  col.AddSets(sampler, 600, {}, &touched);
  inc.Rebuild(col, eligible);

  std::vector<graph::NodeId> seeds;
  Rng rng(1234);
  for (int op = 0; op < 60; ++op) {
    if (rng.NextBounded(3) == 0) {
      // Growth: adopt a batch and repair incrementally.
      col.AddSets(sampler, 50 + rng.NextBounded(400), seeds, &touched);
      inc.ApplyCoverageIncreases(col, eligible, touched);
    } else {
      // Selection: retire a node and remove its covered sets (coverage
      // only decreases — the lazy heap absorbs it without repair).
      const graph::NodeId v =
          static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
      if (!eligible[v]) continue;
      eligible[v] = 0;
      seeds.push_back(v);
      col.RemoveCoveredBy(v);
    }
    CoverageHeap fresh;
    fresh.Configure(ratio_keyed, costs);
    fresh.Rebuild(col, eligible);
    const bool inc_has = inc.SettleTop(col, eligible);
    const bool fresh_has = fresh.SettleTop(col, eligible);
    ASSERT_EQ(inc_has, fresh_has) << "op " << op;
    if (!inc_has) continue;
    EXPECT_EQ(inc.Top().node, fresh.Top().node) << "op " << op;
    EXPECT_EQ(inc.Top().cov, fresh.Top().cov) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(BothKeys, HeapRepairCrossCheck,
                         ::testing::Values(false, true));

// ---- The exact Algorithm 5 key and the tournament-tree window. ----

// Exact sign of a·d − c·b for integers a, c and non-negative doubles d, b
// whose binary exponents differ by less than 40: d = md·2^ed with a 53-bit
// integer md, so both products are < 2^85 integers times powers of two and
// compare exactly in 128-bit arithmetic. Independent of CompareProducts.
int ExactSign(uint32_t a, double d, uint32_t c, double b) {
  int ed = 0, eb = 0;
  const double fd = std::frexp(d, &ed);
  const double fb = std::frexp(b, &eb);
  __int128 x = static_cast<__int128>(a) *
               static_cast<int64_t>(std::ldexp(fd, 53));
  __int128 y = static_cast<__int128>(c) *
               static_cast<int64_t>(std::ldexp(fb, 53));
  if (ed > eb) {
    x <<= (ed - eb);
  } else {
    y <<= (eb - ed);
  }
  return (x > y) - (x < y);
}

// "a ranks before b" under the Algorithm 5 key, from ExactSign.
bool ExactRatioBefore(const CoverageHeapEntry& a, const CoverageHeapEntry& b,
                      std::span<const double> costs) {
  const int ratio = ExactSign(a.cov, costs[b.node], b.cov, costs[a.node]);
  if (ratio != 0) return ratio > 0;
  if (a.cov != b.cov) return a.cov > b.cov;
  return a.node < b.node;
}

// (coverage, cost) of nodes 0, 1, 2: a rounded cross-multiplied key calls
// a ≻ b and b ≻ c (rounded ties, broken by coverage) but c ≻ a by one ulp,
// so a linear scan's winner depended on buffer order. Exactly, b ≻ c ≻ a.
const std::vector<double> kCycleCosts = {131.84423400167844,
                                         27.359302252811347,
                                         18.88901382043751};
const CoverageHeapEntry kCycle[3] = {{4872, 0}, {1011, 1}, {698, 2}};

TEST(SelectionKeyTest, RoundedKeyCyclesOnTheTriple) {
  const auto& c = kCycleCosts;
  EXPECT_EQ(4872.0 * c[1], 1011.0 * c[0]);
  EXPECT_EQ(1011.0 * c[2], 698.0 * c[1]);
  EXPECT_GT(698.0 * c[0], 4872.0 * c[2]);
}

TEST(SelectionKeyTest, CompareProductsIsExactOnTheTriple) {
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const CoverageHeapEntry& x = kCycle[i];
      const CoverageHeapEntry& y = kCycle[j];
      EXPECT_EQ(CompareProducts(x.cov, kCycleCosts[j], y.cov, kCycleCosts[i]),
                ExactSign(x.cov, kCycleCosts[j], y.cov, kCycleCosts[i]))
          << i << " vs " << j;
    }
  }
  EXPECT_TRUE(RatioBefore(kCycle[1], kCycle[2], kCycleCosts));
  EXPECT_TRUE(RatioBefore(kCycle[2], kCycle[0], kCycleCosts));
  EXPECT_TRUE(RatioBefore(kCycle[1], kCycle[0], kCycleCosts));
}

TEST(SelectionKeyTest, CompareProductsMatchesExactOnNearTies) {
  Rng rng(2024);
  uint64_t rounded_ties = 0;
  for (int i = 0; i < 200'000; ++i) {
    const uint32_t a = 1 + static_cast<uint32_t>(rng.NextBounded(20'000));
    // A quarter share a's coverage (CompareProducts' shared-factor path).
    const uint32_t c = rng.NextBounded(4) == 0
                           ? a
                           : 1 + static_cast<uint32_t>(rng.NextBounded(20'000));
    const double d = 0.5 + 200.0 * rng.NextDouble();
    // b ≈ a·d/c, nudged by a few ulps: the products nearly or exactly tie.
    double b = a * d / c;
    for (uint64_t k = rng.NextBounded(5); k > 0; --k) {
      b = std::nextafter(b, rng.NextBounded(2) ? 1e9 : 0.0);
    }
    if (static_cast<double>(a) * d == static_cast<double>(c) * b) {
      ++rounded_ties;
    }
    ASSERT_EQ(CompareProducts(a, d, c, b), ExactSign(a, d, c, b))
        << a << "*" << d << " vs " << c << "*" << b;
  }
  EXPECT_GT(rounded_ties, 1000u);  // the fma tie-break really ran
}

TEST(SelectionKeyTest, WindowPicksExactWinnerInEveryOrder) {
  int order[3] = {0, 1, 2};
  int orders = 0;
  do {
    SCOPED_TRACE(testing::Message()
                 << order[0] << order[1] << order[2]);
    SelectionWindow window;
    window.Reset(3, kCycleCosts);
    for (uint32_t slot = 0; slot < 3; ++slot) {
      window.Set(slot, kCycle[order[slot]]);
    }
    // Retiring winners one by one yields the exact order b, c, a.
    for (graph::NodeId want : {1u, 2u, 0u}) {
      const uint32_t slot = window.Winner();
      ASSERT_NE(slot, SelectionWindow::kNoSlot);
      EXPECT_EQ(window.entry(slot).node, want);
      window.Clear(slot);
    }
    EXPECT_EQ(window.Winner(), SelectionWindow::kNoSlot);
    ++orders;
  } while (std::next_permutation(order, order + 3));
  EXPECT_EQ(orders, 6);
}

// Randomized engine trajectories under the windowed rule: after every
// candidate computation — across infeasible retires, takes, commits and
// sample growths — the candidate must be the exact-key argmax over the
// top-w eligible nodes ranked by (coverage desc, node asc).
class WindowCrossCheck : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WindowCrossCheck, CandidateMatchesBruteForceWindowArgmax) {
  const uint32_t w = GetParam();
  const Graph g = MakeBaGraph(500, 13);
  auto topics = topic::MakeUniform(g, 1, 0.1);
  ASSERT_TRUE(topics.ok());
  std::vector<AdvertiserSpec> ads(1);
  ads[0].cpe = 0.2;
  ads[0].budget = 1e9;
  ads[0].gamma = topic::TopicDistribution::Uniform(1);
  // Half the costs from a small grid, so exact ratio ties (broken by
  // coverage, then node id) are common; the rest continuous; one zero.
  std::vector<double> costs(g.num_nodes());
  Rng cost_rng(31);
  for (double& c : costs) {
    c = cost_rng.NextBounded(2)
            ? 0.5 * static_cast<double>(1 + cost_rng.NextBounded(6))
            : 0.5 + 2.5 * cost_rng.NextDouble();
  }
  costs[11] = 0.0;
  auto inst = RmInstance::Create(g, topics.value(), std::move(ads), {costs});
  ASSERT_TRUE(inst.ok());
  const RmInstance& instance = inst.value();

  rrset::SampleSizerOptions so;
  so.epsilon = 0.5;
  so.theta_cap = 3000;
  so.seed = 17;
  AdvertiserEngineOptions eo;
  eo.candidate_rule = CandidateRule::kCoverageCostRatio;
  eo.window = w;
  eo.sampler_seed = 23;
  eo.sizer = std::make_shared<const rrset::SampleSizer>(
      g, instance.ad_probs(0), so);
  eo.sampler.num_threads = 1;
  AdvertiserEngine engine(0, instance,
                          std::make_shared<rrset::RrStore>(g.num_nodes()), eo);
  ASSERT_TRUE(engine.Init().ok());

  auto reference = [&]() {
    std::vector<CoverageHeapEntry> live;
    const auto eligible = engine.eligible_for_test();
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const uint32_t cov = engine.collection().CoverageOf(v);
      if (eligible[v] && cov > 0) live.push_back({cov, v});
    }
    const size_t top = std::min<size_t>(w, live.size());
    std::partial_sort(live.begin(), live.begin() + top, live.end(),
                      [](const CoverageHeapEntry& a,
                         const CoverageHeapEntry& b) {
                        return a.cov != b.cov ? a.cov > b.cov
                                              : a.node < b.node;
                      });
    if (top == 0) return AdvertiserEngine::kNoNode;
    return std::min_element(live.begin(), live.begin() + top,
                            [&](const CoverageHeapEntry& a,
                                const CoverageHeapEntry& b) {
                              return ExactRatioBefore(a, b, costs);
                            })
        ->node;
  };

  constexpr double kNoLimit = std::numeric_limits<double>::infinity();
  Rng rng(4242 + w);
  int checks = 0, not_top_coverage = 0;
  // Taking a node other than the candidate keeps the cached candidate (it
  // is recomputed only once invalidated), so only recomputations are
  // checked against the reference.
  bool cached = false;
  bool exhausted = false;
  graph::NodeId cand = AdvertiserEngine::kNoNode;
  constexpr int kOps = 150;
  for (int op = 0; op < kOps; ++op) {
    engine.EnsureFeasibleCandidate(kNoLimit);
    if (cached) {
      ASSERT_EQ(engine.candidate(), cand) << "op " << op;
    } else {
      ASSERT_EQ(engine.candidate(), reference()) << "op " << op;
      ++checks;
    }
    if (!engine.has_candidate()) break;
    cand = engine.candidate();
    cached = false;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (engine.eligible_for_test()[v] &&
          engine.collection().CoverageOf(v) >
              engine.collection().CoverageOf(cand)) {
        ++not_top_coverage;
        break;
      }
    }
    // The last op leaves the ad without any affordable node.
    switch (op + 1 == kOps ? 6 : rng.NextBounded(6)) {
      case 0:  // the candidate is over budget: Algorithm 1 line 12
        engine.EnsureFeasibleCandidate(engine.payment() +
                                       engine.cand_marg_pay() - 1e-6);
        ASSERT_EQ(engine.candidate(), reference()) << "op " << op;
        break;
      case 1: {  // another ad took a random node
        const auto v =
            static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
        engine.MarkNodeTaken(v);
        cached = v != cand;
        break;
      }
      case 2:  // another ad took this ad's candidate
        engine.MarkNodeTaken(cand);
        break;
      case 3:  // sample growth: the window re-settles from the heap
        engine.GrowNow(engine.theta() + 200 + rng.NextBounded(800));
        break;
      case 6:  // every live node is over budget: the ad leaves selection
        engine.EnsureFeasibleCandidate(engine.payment());
        ASSERT_EQ(engine.candidate(), reference()) << "op " << op;
        exhausted = !engine.has_candidate();
        break;
      default:  // commit the candidate
        engine.CommitSeed(cand);
        engine.MarkNodeTaken(cand);
        break;
    }
  }
  EXPECT_TRUE(exhausted);
  EXPECT_GT(checks, 50);
  EXPECT_GT(engine.growth_events(), 3u);
  if (w > 1) {
    EXPECT_GT(not_top_coverage, 0);  // the ratio key, not coverage, chose
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowCrossCheck,
                         ::testing::Values(1u, 5u, 32u));

// ---- The exhausted-ad exit (Algorithm 1 line 12 at the end of a budget). ----

constexpr double kUnlimited = std::numeric_limits<double>::infinity();

struct ExitRule {
  const char* name;
  CandidateRule rule;
  uint32_t window;
};

void PrintTo(const ExitRule& rule, std::ostream* os) { *os << rule.name; }

// Every heap rule and window shape must leave EnsureFeasibleCandidate
// exactly where Algorithm 1 line 12 applied one node at a time leaves it,
// whether or not a call gets past the point where the engine scans all
// nodes for an affordable one (n / bit_width(n) retirements).
class ExhaustedAdExit : public ::testing::TestWithParam<ExitRule> {
 protected:
  ExhaustedAdExit() {
    auto topics = topic::MakeUniform(g_, 1, 0.1);
    ISA_CHECK(topics.ok());
    std::vector<AdvertiserSpec> ads(1);
    ads[0].cpe = 0.2;
    ads[0].budget = 1e9;
    ads[0].gamma = topic::TopicDistribution::Uniform(1);
    // Distinct positive incentives within 1.25x of each other: payments do
    // not tie, no node with coverage 0 is free, and every key ranks the
    // nodes of coverage 1 last.
    std::vector<double> costs(g_.num_nodes());
    for (graph::NodeId v = 0; v < g_.num_nodes(); ++v) {
      costs[v] = 1.0 + 0.01 * std::sqrt(static_cast<double>(v) + 0.5);
    }
    auto inst = RmInstance::Create(g_, topics.value(), std::move(ads),
                                   {std::move(costs)});
    ISA_CHECK(inst.ok());
    instance_ = std::make_unique<RmInstance>(std::move(inst).value());
    // A small θ leaves many eligible nodes at coverage 0.
    rrset::SampleSizerOptions so;
    so.epsilon = 0.5;
    so.theta_cap = 400;
    so.seed = 17;
    sizer_ = std::make_shared<const rrset::SampleSizer>(
        g_, instance_->ad_probs(0), so);
  }

  // A fresh engine after three commits under no limit, so payment > 0.
  std::unique_ptr<AdvertiserEngine> MakeEngine() const {
    AdvertiserEngineOptions eo;
    eo.candidate_rule = GetParam().rule;
    eo.window = GetParam().window;
    eo.sampler_seed = 23;
    eo.sizer = sizer_;
    eo.sampler.num_threads = 1;
    auto engine = std::make_unique<AdvertiserEngine>(
        0, *instance_, std::make_shared<rrset::RrStore>(g_.num_nodes()), eo);
    ISA_CHECK(engine->Init().ok());
    for (int i = 0; i < 3; ++i) {
      engine->EnsureFeasibleCandidate(kUnlimited);
      const graph::NodeId v = engine->candidate();
      engine->CommitSeed(v);
      engine->MarkNodeTaken(v);
    }
    return engine;
  }

  size_t ScanAt() const {
    const size_t n = g_.num_nodes();
    return n / static_cast<size_t>(std::bit_width(n));
  }

  const Graph g_ = MakeBaGraph(500, 21);
  std::unique_ptr<RmInstance> instance_;
  std::shared_ptr<const rrset::SampleSizer> sizer_;
};

// The literal line 12: settle the candidate under no limit (which retires
// nothing), and retire it by hand while `budget` cannot afford it. Returns
// the number of retirements.
size_t DrainOneByOne(AdvertiserEngine& engine, double budget) {
  size_t retired = 0;
  while (true) {
    engine.EnsureFeasibleCandidate(kUnlimited);
    if (!engine.has_candidate() ||
        engine.payment() + engine.cand_marg_pay() <= budget + kBudgetSlack) {
      return retired;
    }
    engine.MarkNodeTaken(engine.candidate());
    ++retired;
  }
}

// Every live node as (node, payment if chosen), in line-12 order.
std::vector<std::pair<graph::NodeId, double>> LiveNodesInOrder(
    AdvertiserEngine& engine) {
  std::vector<std::pair<graph::NodeId, double>> order;
  while (true) {
    engine.EnsureFeasibleCandidate(kUnlimited);
    if (!engine.has_candidate()) return order;
    order.emplace_back(engine.candidate(),
                       engine.payment() + engine.cand_marg_pay());
    engine.MarkNodeTaken(engine.candidate());
  }
}

void ExpectSameSelectionState(AdvertiserEngine& engine,
                              AdvertiserEngine& reference) {
  EXPECT_EQ(engine.has_candidate(), reference.has_candidate());
  EXPECT_EQ(engine.candidate(), reference.candidate());
  EXPECT_TRUE(std::ranges::equal(engine.eligible_for_test(),
                                 reference.eligible_for_test()));
  EXPECT_EQ(engine.heap_for_test().size(), reference.heap_for_test().size());
}

TEST_P(ExhaustedAdExit, NothingAffordableMatchesOneByOneDrain) {
  auto engine = MakeEngine();
  auto reference = MakeEngine();
  // Every marginal payment exceeds kBudgetSlack: the budget admits nothing.
  const double budget = engine->payment();
  const size_t retired = DrainOneByOne(*reference, budget);
  ASSERT_GT(retired, ScanAt());  // the scan, not the pops, ends the call
  engine->EnsureFeasibleCandidate(budget);
  ExpectSameSelectionState(*engine, *reference);
  EXPECT_FALSE(engine->has_candidate());
  EXPECT_EQ(engine->heap_for_test().size(), 0u);

  // Live nodes are retired, eligible nodes at coverage 0 are not.
  size_t zero_coverage_eligible = 0;
  for (graph::NodeId v = 0; v < g_.num_nodes(); ++v) {
    if (!engine->eligible_for_test()[v]) continue;
    EXPECT_EQ(engine->collection().CoverageOf(v), 0u) << "node " << v;
    ++zero_coverage_eligible;
  }
  EXPECT_GT(zero_coverage_eligible, 0u);

  // The heap and the window are left as the drain leaves them: a growth
  // (which the scheduler never runs on an exhausted ad) re-settles both
  // engines to the same candidate.
  for (AdvertiserEngine* e : {engine.get(), reference.get()}) {
    e->GrowNow(e->theta() + 2000);
    e->EnsureFeasibleCandidate(kUnlimited);
  }
  ASSERT_TRUE(reference->has_candidate());
  ExpectSameSelectionState(*engine, *reference);
}

TEST_P(ExhaustedAdExit, AffordableNodePastTheScanIsTheReferenceCandidate) {
  auto probe = MakeEngine();
  const auto order = LiveNodesInOrder(*probe);
  ASSERT_GT(order.size(), ScanAt() + 10);
  // Just below every payment in the first scan_at + 1 positions, so the
  // call retires past the scan and then stops at a later, cheaper node.
  double budget = kUnlimited;
  for (size_t i = 0; i <= ScanAt(); ++i) {
    budget = std::min(budget, order[i].second);
  }
  budget -= 1e-6;

  auto engine = MakeEngine();
  auto reference = MakeEngine();
  const size_t retired = DrainOneByOne(*reference, budget);
  ASSERT_TRUE(reference->has_candidate());
  ASSERT_GT(retired, ScanAt());
  engine->EnsureFeasibleCandidate(budget);
  ExpectSameSelectionState(*engine, *reference);
}

TEST_P(ExhaustedAdExit, OneNodeAffordableOnlyWithTheSlack) {
  auto probe = MakeEngine();
  auto order = LiveNodesInOrder(*probe);
  ASSERT_GT(order.size(), ScanAt() + 1);
  const auto cheapest = std::min_element(
      order.begin(), order.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  ASSERT_GT(static_cast<size_t>(cheapest - order.begin()), ScanAt());
  const graph::NodeId target = cheapest->first;
  const double pay = cheapest->second;
  for (const auto& [v, p] : order) {
    if (v != target) {
      ASSERT_GT(p, pay + 1e-6) << "payment tie at " << v;
    }
  }
  // budget + kBudgetSlack == pay exactly, and budget < pay.
  double budget = pay - kBudgetSlack;
  while (budget + kBudgetSlack > pay) budget = std::nextafter(budget, 0.0);
  while (budget + kBudgetSlack < pay) budget = std::nextafter(budget, pay);
  ASSERT_EQ(budget + kBudgetSlack, pay);
  ASSERT_LT(budget, pay);

  auto engine = MakeEngine();
  auto reference = MakeEngine();
  DrainOneByOne(*reference, budget);
  ASSERT_EQ(reference->candidate(), target);
  engine->EnsureFeasibleCandidate(budget);
  ExpectSameSelectionState(*engine, *reference);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, ExhaustedAdExit,
    ::testing::Values(
        ExitRule{"coverage", CandidateRule::kCoverage, 0},
        ExitRule{"ratio_heap", CandidateRule::kCoverageCostRatio, 0},
        ExitRule{"window1", CandidateRule::kCoverageCostRatio, 1},
        ExitRule{"window8", CandidateRule::kCoverageCostRatio, 8},
        ExitRule{"window64", CandidateRule::kCoverageCostRatio, 64}),
    [](const ::testing::TestParamInfo<ExitRule>& info) {
      return std::string(info.param.name);
    });

// ---- θ-growth determinism. ----

// High-influence fixture: at p = 0.8 the KPT pilot converges with a large
// OPT lower bound, so θ(1) is small and θ(s̃) grows cheaply as Eq. 10
// revises s̃ upward — several growth events per fast run, which is what
// puts the incremental heap repair on the hot path. Since the Eq. 8 schedule
// fix, growth engages under default influence as well (the
// DefaultInfluenceFixture below); this fixture stays as the cheap
// determinism workhorse.
struct GrowthFixture {
  Graph g = MakeBaGraph(150, 9);
  std::unique_ptr<RmInstance> instance;

  GrowthFixture() {
    auto topics = topic::MakeUniform(g, 1, 0.8);
    ISA_CHECK(topics.ok());
    std::vector<AdvertiserSpec> ads(3);
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
};

void ExpectTiResultsIdentical(const TiResult& a, const TiResult& b) {
  EXPECT_EQ(a.allocation.seed_sets, b.allocation.seed_sets);
  EXPECT_EQ(a.total_revenue, b.total_revenue);  // bitwise
  EXPECT_EQ(a.total_seeding_cost, b.total_seeding_cost);
  EXPECT_EQ(a.total_seeds, b.total_seeds);
  EXPECT_EQ(a.total_theta, b.total_theta);
  // The θ-schedule observability counters are part of the determinism
  // contract too: they depend only on the pilot and the selection
  // trajectory, never on timing.
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
    EXPECT_EQ(a.ad_stats[j].kpt_lower_bound, b.ad_stats[j].kpt_lower_bound);
    EXPECT_EQ(a.ad_stats[j].pilot_sets, b.ad_stats[j].pilot_sets);
    EXPECT_EQ(a.ad_stats[j].pilot_converged, b.ad_stats[j].pilot_converged);
  }
}

// For every candidate rule (and both window shapes of Algorithm 5), a run
// with θ-growth must yield a bit-identical TiResult at 1, 2 and 8 threads.
// Each config must actually grow, or the sweep is vacuous. (The suite name
// dates from when growth could also run asynchronously; growth is now
// synchronous only, and the name is kept so the test's history and CI
// filters stay continuous.)
TEST(AsyncGrowthTest, TiResultBitIdenticalAcrossThreadCountsAllRules) {
  GrowthFixture f;
  struct Config {
    const char* name;
    CandidateRule rule;
    SelectionRule sel;
    uint32_t window;
    bool share_samples;
  };
  const Config configs[] = {
      {"coverage", CandidateRule::kCoverage,
       SelectionRule::kMaxMarginalRevenue, 0, false},
      {"ratio-full", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 0, false},
      {"ratio-window", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 8, false},
      {"pagerank", CandidateRule::kPageRank,
       SelectionRule::kMaxMarginalRevenue, 0, false},
      {"ratio-shared", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 0, true},
  };

  for (const Config& cfg : configs) {
    SCOPED_TRACE(cfg.name);
    TiOptions options;
    options.candidate_rule = cfg.rule;
    options.selection_rule = cfg.sel;
    options.window = cfg.window;
    options.share_samples = cfg.share_samples;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.theta_cap = 200'000;

    TiResult reference;
    for (uint32_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      options.num_threads = threads;
      auto result = RunTiGreedy(*f.instance, options);
      ASSERT_TRUE(result.ok()) << result.status().message();
      if (threads == 1u) {
        reference = result.value();
        EXPECT_GT(reference.total_seeds, 0u);
        EXPECT_GT(reference.total_growth_events, 0u);
        continue;
      }
      ExpectTiResultsIdentical(reference, result.value());
    }
  }
}

// Growth must actually engage on this fixture (growth events > 0), or the
// determinism sweep above is vacuous; the per-ad counters must add up to
// the run total.
TEST(AsyncGrowthTest, GrowthEventsActuallyHappen) {
  GrowthFixture f;
  TiOptions options;
  options.epsilon = 0.3;
  options.seed = 1234;
  options.theta_cap = 200'000;
  auto res = RunTiCsrm(*f.instance, options);
  ASSERT_TRUE(res.ok());
  uint64_t events = 0;
  for (const auto& st : res.value().ad_stats) events += st.sample_growth_events;
  EXPECT_GT(events, 0u);
  EXPECT_EQ(events, res.value().total_growth_events);
}

// ---- θ-growth under DEFAULT influence (the Eq. 8 schedule fix). ----

// Weighted-cascade probabilities — the paper's default regime, nothing
// inflated. Before the schedule fix (per-s KPT re-evaluation + OPT_s >= s
// floor) θ(s̃) was non-increasing here and the growth machinery idled; the
// paper-faithful schedule (one pilot scalar, growing λ(s) numerator) must
// make it engage. ε and theta_cap are chosen so θ(1) sits well under the
// cap, leaving headroom for several Eq. 10 revisions to grow into.
struct DefaultInfluenceFixture {
  Graph g = MakeBaGraph(100, 17);
  std::unique_ptr<RmInstance> instance;

  DefaultInfluenceFixture() {
    auto topics = topic::MakeWeightedCascade(g, 1);
    ISA_CHECK(topics.ok());
    std::vector<AdvertiserSpec> ads(2);
    ads[0].cpe = 0.2;
    ads[0].budget = 15.0;
    ads[1].cpe = 0.15;
    ads[1].budget = 12.0;
    for (auto& ad : ads) ad.gamma = topic::TopicDistribution::Uniform(1);
    std::vector<std::vector<double>> incentives(
        2, std::vector<double>(g.num_nodes(), 1.0));
    auto inst = RmInstance::Create(g, topics.value(), std::move(ads),
                                   std::move(incentives));
    ISA_CHECK(inst.ok());
    instance = std::make_unique<RmInstance>(std::move(inst).value());
  }

  TiOptions Options() const {
    TiOptions options;
    options.epsilon = 0.5;
    options.seed = 99;
    options.theta_cap = 150'000;
    return options;
  }
};

// The acceptance gate for the schedule fix: growth adoptions happen in
// the default-influence regime, and the sample really is larger than
// anything a non-growing schedule would have drawn.
TEST(GrowthRegimeTest, ThetaGrowthEngagesUnderDefaultInfluence) {
  DefaultInfluenceFixture f;
  auto res = RunTiCsrm(*f.instance, f.Options());
  ASSERT_TRUE(res.ok()) << res.status().message();
  const TiResult& r = res.value();
  EXPECT_GT(r.total_growth_events, 0u);
  EXPECT_GT(r.ads_growth_engaged, 0u);
  // An engaged ad's final θ must exceed its start-of-run θ(1): the growth
  // events actually enlarged the sample. θ(1) is reproduced from the
  // instance with the run's own sizer parameters.
  for (uint32_t j = 0; j < r.ad_stats.size(); ++j) {
    const TiAdStats& st = r.ad_stats[j];
    if (st.sample_growth_events == 0) continue;
    rrset::SampleSizerOptions so;
    so.epsilon = 0.5;
    so.theta_cap = 150'000;
    so.seed = HashSeed(99, 1000 + j);
    rrset::SampleSizer sizer(f.instance->graph(), f.instance->ad_probs(j),
                             so);
    EXPECT_GT(st.theta, sizer.ThetaFor(1)) << "ad " << j;
    EXPECT_GE(st.latent_seed_size, st.seeds);
  }
}

// Bit-identity on the default-influence fixture too: the growth path that
// now actually runs must stay deterministic at any thread count.
TEST(GrowthRegimeTest, DefaultInfluenceBitIdenticalAcrossThreadCounts) {
  DefaultInfluenceFixture f;
  TiOptions options = f.Options();
  TiResult reference;
  for (uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    options.num_threads = threads;
    auto result = RunTiCsrm(*f.instance, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    if (threads == 1u) {
      reference = result.value();
      EXPECT_GT(reference.total_growth_events, 0u);
      continue;
    }
    ExpectTiResultsIdentical(reference, result.value());
  }
}

}  // namespace
}  // namespace isa::core
