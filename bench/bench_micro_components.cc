// Google-benchmark microbenchmarks for the library's hot components:
// graph generation, Eq. 1 probability mixing, forward cascades, RR
// sampling, coverage maintenance, and weighted PageRank — plus three gated
// sweeps that run after the registered benchmarks and emit
// BENCH_micro.json via the shared ISA_BENCH_JSON_DIR plumbing: heap repair
// (incremental CELF repair vs full rebuild at several coverage-delta
// densities), window retire throughput (the selection window's tournament
// tree vs a linear argmax scan over the same window states) and the RR
// sampling kernel (the store's coin column, arc codes included, vs the
// per-arc probability walk, plus the column's build time).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/advertiser_engine.h"
#include "diffusion/cascade.h"
#include "graph/dataset_catalog.h"
#include "graph/generators.h"
#include "graph/pagerank.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "topic/tic_model.h"
#include "topic/topic_distribution.h"

namespace {

using isa::graph::Graph;
using isa::graph::WeightingRegime;

const Graph& SharedBaGraph() {
  static const Graph g = isa::graph::GenerateBarabasiAlbert(
                             {.num_nodes = 20'000, .edges_per_node = 5,
                              .seed = 3})
                             .value();
  return g;
}

const isa::topic::TopicEdgeProbabilities& SharedWc() {
  const Graph& g = SharedBaGraph();
  static const auto topics =
      isa::topic::TopicEdgeProbabilities::Create(
          g, isa::graph::MakeRegimeWeights(g,
                                           WeightingRegime::kWeightedCascade)
                 .value())
          .value();
  return topics;
}

void BM_GenerateBarabasiAlbert(benchmark::State& state) {
  const auto n = static_cast<isa::graph::NodeId>(state.range(0));
  for (auto _ : state) {
    auto g = isa::graph::GenerateBarabasiAlbert(
        {.num_nodes = n, .edges_per_node = 3, .seed = 1});
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GenerateBarabasiAlbert)->Arg(1'000)->Arg(10'000);

void BM_GenerateRmat(benchmark::State& state) {
  for (auto _ : state) {
    isa::graph::RmatOptions opt;
    opt.scale = static_cast<uint32_t>(state.range(0));
    opt.num_edges = (1u << opt.scale) * 8;
    opt.seed = 1;
    auto g = isa::graph::GenerateRmat(opt);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GenerateRmat)->Arg(10)->Arg(14);

void BM_MixAdProbabilities(benchmark::State& state) {
  const auto& g = SharedBaGraph();
  const auto topics =
      isa::topic::TopicEdgeProbabilities::Create(
          g, isa::graph::MakeRegimeWeights(g, WeightingRegime::kTopicMix, 10,
                                           0.0, 7)
                 .value())
          .value();
  const auto gamma =
      isa::topic::TopicDistribution::Concentrated(10, 2, 0.91).value();
  for (auto _ : state) {
    auto mixed = isa::topic::AdProbabilities::Mix(topics, gamma);
    benchmark::DoNotOptimize(mixed);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 10);
}
BENCHMARK(BM_MixAdProbabilities);

void BM_CascadeRun(benchmark::State& state) {
  const auto& g = SharedBaGraph();
  const auto& topics = SharedWc();
  isa::diffusion::CascadeSimulator sim(g);
  isa::Rng rng(11);
  const isa::graph::NodeId seeds[3] = {0, 1, 2};
  uint64_t total = 0;
  for (auto _ : state) {
    total += sim.RunOnce(topics.topic(0), seeds, rng);
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CascadeRun);

void BM_RrSample(benchmark::State& state) {
  const auto& g = SharedBaGraph();
  const auto& topics = SharedWc();
  isa::rrset::RrSampler sampler(g, topics.topic(0));
  isa::Rng rng(13);
  std::vector<isa::graph::NodeId> rr;
  for (auto _ : state) {
    sampler.SampleInto(rng, &rr);
    benchmark::DoNotOptimize(rr.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RrSample);

void BM_CoverageMaintenance(benchmark::State& state) {
  const auto& g = SharedBaGraph();
  const auto& topics = SharedWc();
  for (auto _ : state) {
    state.PauseTiming();
    isa::rrset::ParallelSampler sampler(
        g, topics.topic(0), isa::rrset::DiffusionModel::kIndependentCascade,
        17, {.num_threads = 1});
    isa::rrset::RrCollection col(g.num_nodes());
    col.AddSets(sampler, 20'000, {});
    std::vector<uint8_t> eligible(g.num_nodes(), 1);
    state.ResumeTiming();
    // Greedy loop: 50 argmax + removal rounds.
    for (int i = 0; i < 50; ++i) {
      auto v = col.ArgmaxCoverage(eligible);
      if (v == isa::rrset::RrCollection::kInvalidNode) break;
      eligible[v] = 0;
      col.RemoveCoveredBy(v);
    }
  }
}
BENCHMARK(BM_CoverageMaintenance)->Unit(benchmark::kMillisecond);

void BM_WeightedPageRank(benchmark::State& state) {
  const auto& g = SharedBaGraph();
  const auto& topics = SharedWc();
  for (auto _ : state) {
    auto pr = isa::graph::WeightedPageRank(g, topics.topic(0));
    benchmark::DoNotOptimize(pr);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_WeightedPageRank)->Unit(benchmark::kMillisecond);

// ---- Heap repair: incremental (delta-keyed) vs full rebuild. ----
//
// The staged selection engine repairs the lazy candidate heap after a
// sample growth by pushing one fresh entry per touched node instead of
// rescanning all n nodes (core/advertiser_engine.h). This sweep grows the
// sample by batches of increasing size — i.e. increasing coverage-delta
// density — and times both strategies from identical heap states, cross-
// checking that they settle to the same top. Returns false on a mismatch
// (same spirit as the fig5 determinism gate).
constexpr uint64_t kHeapBaseSets = 60'000;  // sets sampled before the sweep

bool RunHeapRepairSweep(std::vector<std::string>* rows) {
  using isa::core::CoverageHeap;
  const auto& g = SharedBaGraph();
  const auto& topics = SharedWc();
  isa::rrset::ParallelSampler sampler(
      g, topics.topic(0), isa::rrset::DiffusionModel::kIndependentCascade, 23,
      {.num_threads = 1});
  isa::rrset::RrCollection col(g.num_nodes());
  col.AddSets(sampler, kHeapBaseSets, {});
  std::vector<uint8_t> eligible(g.num_nodes(), 1);
  // Retire a few argmax nodes so the state resembles a mid-run engine
  // (some covered sets, some ineligible nodes).
  for (int i = 0; i < 20; ++i) {
    const auto v = col.ArgmaxCoverage(eligible);
    if (v == isa::rrset::RrCollection::kInvalidNode) break;
    eligible[v] = 0;
    col.RemoveCoveredBy(v);
  }
  CoverageHeap base;
  base.Configure(false, {});
  base.Rebuild(col, eligible);

  std::printf("\nheap repair: incremental (delta) vs full rebuild, n=%u\n",
              g.num_nodes());
  std::printf("%12s %14s %10s %16s %14s %9s\n", "batch_sets", "touched_nodes",
              "density", "incremental_us", "rebuild_us", "speedup");
  bool tops_match = true;
  for (uint64_t batch : {64ull, 256ull, 1024ull, 4096ull, 16384ull}) {
    std::vector<isa::graph::NodeId> touched;
    col.AddSets(sampler, batch, {}, &touched);
    const double density =
        static_cast<double>(touched.size()) / g.num_nodes();
    constexpr int kReps = 20;
    double inc_seconds = 0.0, rebuild_seconds = 0.0;
    CoverageHeap inc;
    for (int r = 0; r < kReps; ++r) {
      inc = base;  // copy cost excluded: only the repair is timed
      isa::Stopwatch w;
      inc.ApplyCoverageIncreases(col, eligible, touched);
      inc_seconds += w.ElapsedSeconds();
    }
    CoverageHeap fresh;
    fresh.Configure(false, {});
    for (int r = 0; r < kReps; ++r) {
      isa::Stopwatch w;
      fresh.Rebuild(col, eligible);
      rebuild_seconds += w.ElapsedSeconds();
    }
    inc_seconds /= kReps;
    rebuild_seconds /= kReps;
    const bool inc_has = inc.SettleTop(col, eligible);
    const bool fresh_has = fresh.SettleTop(col, eligible);
    const bool match =
        inc_has == fresh_has &&
        (!inc_has || (inc.Top().node == fresh.Top().node &&
                      inc.Top().cov == fresh.Top().cov));
    tops_match = tops_match && match;
    const double speedup =
        inc_seconds > 0.0 ? rebuild_seconds / inc_seconds : 0.0;
    std::printf("%12llu %14zu %9.4f%% %16.2f %14.2f %8.1fx%s\n",
                static_cast<unsigned long long>(batch), touched.size(),
                100.0 * density, 1e6 * inc_seconds, 1e6 * rebuild_seconds,
                speedup, match ? "" : "  TOP MISMATCH");
    rows->push_back(isa::bench::JsonObject()
                        .Add("batch_sets", batch)
                        .Add("touched_nodes",
                             static_cast<uint64_t>(touched.size()))
                        .Add("delta_density", density)
                        .Add("incremental_seconds", inc_seconds)
                        .Add("rebuild_seconds", rebuild_seconds)
                        .Add("speedup", speedup)
                        .Add("top_matches", match)
                        .str());
    // Continue the sweep from the exact post-growth heap.
    base = fresh;
  }

  if (!tops_match) {
    std::fprintf(stderr,
                 "[bench] heap-repair settled tops diverged from rebuild\n");
  }
  return tops_match;
}

// ---- Window retire throughput: tournament tree vs linear scan. ----
//
// The windowed cost-sensitive rule retires its candidate whenever it is
// over budget: the winner leaves its slot and the slot is refilled from
// the heap. This sweep replays one such retire sequence per window size w
// twice — through core::SelectionWindow (O(log w) per retire) and through
// a reference linear argmax over the same slots (O(w), the scan the tree
// replaced) — and gates on both picking the same winner at every step.
// Coverages repeat and half the costs sit on a coarse grid, so ratio and
// coverage ties reach the node-id tie-break. Returns false on a mismatch.
bool RunWindowRetireSweep(std::vector<std::string>* rows) {
  using isa::core::CoverageHeapEntry;
  using isa::core::SelectionWindow;
  constexpr uint32_t kRetires = 20'000;
  std::printf("\nwindow retire: tournament tree vs linear scan, %u retires\n",
              kRetires);
  std::printf("%8s %16s %16s %9s\n", "window", "tree_retires/s",
              "scan_retires/s", "speedup");
  bool winners_match = true;
  for (uint32_t w : {64u, 1000u, 8192u}) {
    // Entry i fills the initial window (i < w) or refills the i-th retire.
    const uint32_t n = w + kRetires;
    isa::Rng rng(0x5e1ec7 + w);
    std::vector<double> costs(n);
    std::vector<CoverageHeapEntry> entries(n);
    for (uint32_t v = 0; v < n; ++v) {
      costs[v] = rng.NextBounded(2)
                     ? 0.5 * static_cast<double>(1 + rng.NextBounded(8))
                     : 0.5 + 4.0 * rng.NextDouble();
      entries[v] = {static_cast<uint32_t>(1 + rng.NextBounded(64)), v};
    }

    SelectionWindow tree;
    tree.Reset(w, costs);
    for (uint32_t s = 0; s < w; ++s) tree.Set(s, entries[s]);
    std::vector<uint32_t> tree_winners(kRetires);
    isa::Stopwatch tree_watch;
    for (uint32_t i = 0; i < kRetires; ++i) {
      const uint32_t slot = tree.Winner();
      tree_winners[i] = tree.entry(slot).node;
      tree.Clear(slot);
      tree.Set(slot, entries[w + i]);
    }
    const double tree_seconds = tree_watch.ElapsedSeconds();

    std::vector<CoverageHeapEntry> slots(entries.begin(),
                                         entries.begin() + w);
    std::vector<uint32_t> scan_winners(kRetires);
    isa::Stopwatch scan_watch;
    for (uint32_t i = 0; i < kRetires; ++i) {
      uint32_t best = 0;
      for (uint32_t s = 1; s < w; ++s) {
        if (isa::core::RatioBefore(slots[s], slots[best], costs)) best = s;
      }
      scan_winners[i] = slots[best].node;
      slots[best] = entries[w + i];
    }
    const double scan_seconds = scan_watch.ElapsedSeconds();
    benchmark::DoNotOptimize(tree_winners.data());
    benchmark::DoNotOptimize(scan_winners.data());

    const bool match = tree_winners == scan_winners;
    winners_match = winners_match && match;
    const double tree_rate = kRetires / tree_seconds;
    const double scan_rate = kRetires / scan_seconds;
    std::printf("%8u %16.0f %16.0f %8.1fx%s\n", w, tree_rate, scan_rate,
                tree_rate / scan_rate, match ? "" : "  WINNER MISMATCH");
    rows->push_back(isa::bench::JsonObject()
                        .Add("window", w)
                        .Add("retires", kRetires)
                        .Add("tree_retires_per_s", tree_rate)
                        .Add("scan_retires_per_s", scan_rate)
                        .Add("speedup", tree_rate / scan_rate)
                        .Add("winners_match", match)
                        .str());
  }
  if (!winners_match) {
    std::fprintf(stderr,
                 "[bench] window tree winners diverged from the scan\n");
  }
  return winners_match;
}

// ---- Sampling kernel: coin column vs the per-arc walk. ----
//
// rrset::RrSampler flips a node's in-arcs with one integer coin when they
// share a probability, past the cutover jumps from live arc to live arc by
// a geometric skip, and on a mixed node reads each arc's code byte instead
// of gathering its probability (rr_sampler.h). This sweep samples the same
// ids twice on one thread — with a store's column (SampleSizer's: node
// coins plus arc codes) and with an all-mixed column without codes, the
// literal per-arc NextBernoulli(probs[e]) walk — on the perfbench
// stand-ins: a topic-mix power-law graph (mix-selection's, uniform topic
// mix), which has no skip node and whose speedup is the codes' against
// the gather, and a weighted-cascade Barabási–Albert graph (wc-resident's),
// which has no mixed node and so no codes. Gates:
//   - topic-mix: the FNV-1a hashes of the two walks' sets agree — the
//     threshold coin and the arc codes are bit-exact;
//   - weighted cascade: the skip walk equals the per-arc walk in
//     distribution only, so the two samples must agree within kGateZ
//     standard errors on mean set size, and node by node on inclusion
//     counts: |c_coin - c_arc| <= kGateZ * sqrt(c_coin + c_arc + 1), a
//     normal bound on the difference of two binomial counts (the walks
//     share each set's root draw, which only tightens the difference).
// The column's build is timed on its own (`coin_column_build`, with its
// arc-code bytes), and the cutover sweep (`skip_cutover`) prices the skip
// per in-degree bucket of the weighted-cascade graph (p = 1/d). Returns
// false when a gate fails.
constexpr uint64_t kKernelSets = 100'000;
constexpr uint64_t kKernelSeed = 29;
constexpr int kKernelReps = 5;
constexpr int kCutoverReps = 15;  // a bucket moves a set by a few ns
constexpr int kBuildReps = 21;
constexpr double kGateZ = 6.0;

uint64_t HashSets(const std::vector<uint32_t>& sizes,
                  const std::vector<isa::graph::NodeId>& nodes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  for (uint32_t s : sizes) mix(s);  // set boundaries, then the members
  for (isa::graph::NodeId v : nodes) mix(v);
  return h;
}

// Ids [0, kKernelSets) as sampled by one walk, with its median rate.
struct Walk {
  std::vector<uint32_t> sizes;
  std::vector<isa::graph::NodeId> nodes;
  double sets_per_s = 0.0;
};

// Samples the ids `reps` times with each sampler, alternating so both
// share drift.
void TimeWalks(isa::rrset::RrSampler& a, isa::rrset::RrSampler& b, int reps,
               Walk* wa, Walk* wb) {
  std::vector<double> sa, sb;
  for (int r = 0; r < reps; ++r) {
    isa::Stopwatch w;
    a.SampleIds(kKernelSeed, 0, kKernelSets, &wa->sizes, &wa->nodes);
    sa.push_back(w.ElapsedSeconds());
    w.Reset();
    b.SampleIds(kKernelSeed, 0, kKernelSets, &wb->sizes, &wb->nodes);
    sb.push_back(w.ElapsedSeconds());
  }
  wa->sets_per_s = kKernelSets / isa::bench::Median(sa);
  wb->sets_per_s = kKernelSets / isa::bench::Median(sb);
}

// Exact RNG draws per set over the ids: a set's count is the position of
// its walk's next output in a fresh copy of its substream.
double DrawsPerSet(isa::rrset::RrSampler& sampler) {
  std::vector<isa::graph::NodeId> scratch;
  uint64_t draws = 0;
  for (uint64_t id = 0; id < kKernelSets; ++id) {
    isa::Rng walk(isa::HashSeed(kKernelSeed, id));
    sampler.SampleInto(walk, &scratch);
    const uint64_t next = walk.Next();
    isa::Rng replay(isa::HashSeed(kKernelSeed, id));
    while (replay.Next() != next) ++draws;
  }
  return static_cast<double>(draws) / kKernelSets;
}

struct DistributionGate {
  double mean_size_coin = 0.0;
  double mean_size_per_arc = 0.0;
  double size_z = 0.0;      // |mean difference| in standard errors
  double max_node_z = 0.0;  // worst per-node inclusion-count z
  bool ok = false;
};

DistributionGate CompareInDistribution(isa::graph::NodeId n, const Walk& coin,
                                       const Walk& per_arc) {
  DistributionGate gate;
  auto mean_var = [](const std::vector<uint32_t>& sizes, double* mean) {
    double sum = 0.0, sq = 0.0;
    for (const uint32_t s : sizes) {
      sum += s;
      sq += static_cast<double>(s) * s;
    }
    *mean = sum / sizes.size();
    return sq / sizes.size() - *mean * *mean;
  };
  const double var_coin = mean_var(coin.sizes, &gate.mean_size_coin);
  const double var_arc = mean_var(per_arc.sizes, &gate.mean_size_per_arc);
  gate.size_z = std::abs(gate.mean_size_coin - gate.mean_size_per_arc) /
                std::sqrt((var_coin + var_arc) / kKernelSets);
  std::vector<double> c_coin(n, 0.0), c_arc(n, 0.0);
  for (const isa::graph::NodeId v : coin.nodes) ++c_coin[v];
  for (const isa::graph::NodeId v : per_arc.nodes) ++c_arc[v];
  for (isa::graph::NodeId v = 0; v < n; ++v) {
    gate.max_node_z =
        std::max(gate.max_node_z, std::abs(c_coin[v] - c_arc[v]) /
                                      std::sqrt(c_coin[v] + c_arc[v] + 1));
  }
  gate.ok = gate.size_z <= kGateZ && gate.max_node_z <= kGateZ;
  return gate;
}

// The cutover sweep: per in-degree bucket [lo, hi), a column that gives
// only that bucket's threshold nodes their skip coin against the column
// with no skip coin at all, on the same ids — sets/s, exact draws per set,
// and the bucket's in-arcs per set. kSkipDrawCost is read off the bucket
// where the skip starts to win (under weighted cascade UsesSkip reduces to
// in-degree >= 2 * kSkipDrawCost).
void RunSkipCutoverSweep(const Graph& g, std::span<const double> probs,
                         std::vector<std::string>* rows) {
  namespace rr = isa::rrset;
  // The real column, with the bucket alone deciding which threshold nodes
  // skip.
  auto column = [&](uint64_t lo, uint64_t hi) {
    auto coins =
        std::make_shared<rr::CoinColumn>(*rr::BuildCoinColumn(g, probs));
    for (isa::graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      uint64_t& state = coins->nodes[v];
      const bool threshold_node =
          rr::IsSkipCoin(state) || (state > 0 && state < rr::kCoinAlways);
      if (!threshold_node) continue;
      const uint64_t t = rr::CoinState(probs[g.InEdgeIds(v)[0]]);
      const uint64_t d = g.InDegree(v);
      state = d >= lo && d < hi ? rr::SkipCoin(t) : t;
    }
    return std::shared_ptr<const rr::CoinColumn>(std::move(coins));
  };
  rr::RrSampler per_arc(g, probs, column(0, 0));
  const uint64_t edges[] = {2, 3, 4, 6, 8, 12, 16, 32, UINT32_MAX};
  std::printf("\nskip cutover (wc-ba, p = 1/d): skip on one in-degree bucket "
              "vs none, %llu sets, 1 thread, median of %d\n",
              static_cast<unsigned long long>(kKernelSets), kCutoverReps);
  std::printf("%-9s %8s %10s %12s %11s %14s %13s %12s\n", "in-degree",
              "nodes", "arcs/set", "draws/set", "skip_draws", "per_arc_sets/s",
              "skip_sets/s", "ns_saved/set");
  const double per_arc_draws = DrawsPerSet(per_arc);
  for (size_t b = 0; b + 1 < std::size(edges); ++b) {
    const uint64_t lo = edges[b], hi = edges[b + 1];
    uint64_t nodes_in = 0;
    for (isa::graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      nodes_in += g.InDegree(v) >= lo && g.InDegree(v) < hi;
    }
    rr::RrSampler skip(g, probs, column(lo, hi));
    Walk wa, ws;
    TimeWalks(per_arc, skip, kCutoverReps, &wa, &ws);
    uint64_t arcs = 0;
    for (const isa::graph::NodeId v : wa.nodes) {
      const uint64_t d = g.InDegree(v);
      if (d >= lo && d < hi) arcs += d;
    }
    const double arcs_per_set = static_cast<double>(arcs) / kKernelSets;
    const double skip_draws = DrawsPerSet(skip);
    const double saved_ns = 1e9 / wa.sets_per_s - 1e9 / ws.sets_per_s;
    char label[16];
    std::snprintf(label, sizeof(label),
                  hi == UINT32_MAX ? ">=%llu" : "[%llu,%llu)",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    std::printf("%-9s %8llu %10.2f %12.2f %11.2f %14.0f %13.0f %12.1f\n",
                label, static_cast<unsigned long long>(nodes_in),
                arcs_per_set, per_arc_draws, skip_draws, wa.sets_per_s,
                ws.sets_per_s, saved_ns);
    rows->push_back(isa::bench::JsonObject()
                        .Add("in_degree_lo", lo)
                        .Add("in_degree_hi", hi)
                        .Add("nodes", nodes_in)
                        .Add("bucket_arcs_per_set", arcs_per_set)
                        .Add("per_arc_draws_per_set", per_arc_draws)
                        .Add("skip_draws_per_set", skip_draws)
                        .Add("per_arc_sets_per_s", wa.sets_per_s)
                        .Add("skip_sets_per_s", ws.sets_per_s)
                        .Add("ns_saved_per_set", saved_ns)
                        .Add("uses_skip",
                             rr::UsesSkip(lo, rr::CoinState(1.0 / lo)))
                        .str());
  }
}

bool RunSamplingKernelSweep(std::vector<std::string>* kernel_rows,
                            std::vector<std::string>* build_rows,
                            std::vector<std::string>* cutover_rows) {
  struct Instance {
    const char* name;
    const char* dataset;
    isa::graph::WeightingRegime regime;
    double scale;
    bool bit_exact;  // gate on the set hash, else in distribution
  };
  const Instance instances[] = {
      {"wc-ba", "com-dblp", isa::graph::WeightingRegime::kWeightedCascade,
       0.16, false},
      {"topic-mix", "soc-epinions1", isa::graph::WeightingRegime::kTopicMix,
       0.5, true},
  };
  std::printf("\nsampling kernel: coin column vs per-arc walk, %llu sets, "
              "1 thread, median of %d (column build: median of %d)\n",
              static_cast<unsigned long long>(kKernelSets), kKernelReps,
              kBuildReps);
  std::printf("%-10s %8s %9s %9s %9s %10s %9s %14s %16s %9s  %s\n",
              "instance", "nodes", "arcs", "uniform", "skip", "code_bytes",
              "build_ms", "coin_sets/s", "per_arc_sets/s", "speedup", "gate");
  bool all_ok = true;
  for (const Instance& in : instances) {
    isa::graph::DatasetCatalog::Options copt;
    copt.scale = in.scale;
    copt.seed = 1;
    auto loaded = isa::graph::DatasetCatalog::Load(in.dataset, in.regime,
                                                   copt)
                      .value();
    const Graph& g = loaded.graph;
    const auto topics = isa::topic::TopicEdgeProbabilities::Create(
                            g, std::move(loaded.arc_weights))
                            .value();
    const auto mixed =
        isa::topic::AdProbabilities::Mix(
            topics, isa::topic::TopicDistribution::Uniform(
                        topics.num_topics()))
            .value();
    const std::span<const double> probs = mixed.probs();

    std::vector<double> build_seconds;
    std::shared_ptr<const isa::rrset::CoinColumn> coins;
    for (int r = 0; r < kBuildReps; ++r) {
      isa::Stopwatch w;
      coins = isa::rrset::BuildCoinColumn(g, probs, /*arc_codes=*/true);
      build_seconds.push_back(w.ElapsedSeconds());
    }
    const std::vector<uint64_t>& states = coins->nodes;
    const auto uniform = static_cast<uint64_t>(std::count_if(
        states.begin(), states.end(),
        [](uint64_t c) { return c != isa::rrset::kCoinMixed; }));
    const auto skip = static_cast<uint64_t>(
        std::count_if(states.begin(), states.end(), isa::rrset::IsSkipCoin));
    const uint64_t code_bytes = coins->arc_codes.size();

    isa::rrset::RrSampler coin(g, probs, coins);
    isa::rrset::RrSampler per_arc(
        g, probs,
        std::make_shared<const isa::rrset::CoinColumn>(
            isa::rrset::CoinColumn{
                std::vector<uint64_t>(g.num_nodes(), isa::rrset::kCoinMixed),
                {}}));
    Walk wc, wa;
    TimeWalks(coin, per_arc, kKernelReps, &wc, &wa);
    const uint64_t coin_hash = HashSets(wc.sizes, wc.nodes);
    const bool hash_match = coin_hash == HashSets(wa.sizes, wa.nodes);
    const DistributionGate dist =
        CompareInDistribution(g.num_nodes(), wc, wa);
    const bool ok = in.bit_exact ? hash_match : dist.ok;
    all_ok = all_ok && ok;
    const double build_ms = 1e3 * isa::bench::Median(build_seconds);
    std::printf("%-10s %8u %9llu %9llu %9llu %10llu %9.3f %14.0f %16.0f "
                "%8.2fx  %s%s\n",
                in.name, g.num_nodes(),
                static_cast<unsigned long long>(g.num_edges()),
                static_cast<unsigned long long>(uniform),
                static_cast<unsigned long long>(skip),
                static_cast<unsigned long long>(code_bytes), build_ms,
                wc.sets_per_s, wa.sets_per_s, wc.sets_per_s / wa.sets_per_s,
                in.bit_exact ? "set hash" : "distribution",
                ok ? "" : "  MISMATCH");
    if (!in.bit_exact) {
      std::printf("  mean set size %.4f vs %.4f (z %.2f), worst node z %.2f, "
                  "bound %.1f\n",
                  dist.mean_size_coin, dist.mean_size_per_arc, dist.size_z,
                  dist.max_node_z, kGateZ);
    }
    char hash_str[24];
    std::snprintf(hash_str, sizeof(hash_str), "0x%016llx",
                  static_cast<unsigned long long>(coin_hash));
    isa::bench::JsonObject row;
    row.Add("instance", in.name)
        .Add("nodes", g.num_nodes())
        .Add("arcs", g.num_edges())
        .Add("uniform_nodes", uniform)
        .Add("skip_nodes", skip)
        .Add("sets", kKernelSets)
        .Add("coin_sets_per_s", wc.sets_per_s)
        .Add("per_arc_sets_per_s", wa.sets_per_s)
        .Add("speedup", wc.sets_per_s / wa.sets_per_s)
        .Add("sets_hash", hash_str)
        .Add("gate", in.bit_exact ? "set_hash" : "distribution");
    if (in.bit_exact) {
      row.Add("sets_match", hash_match);
    } else {
      row.Add("mean_size_coin", dist.mean_size_coin)
          .Add("mean_size_per_arc", dist.mean_size_per_arc)
          .Add("size_z", dist.size_z)
          .Add("max_node_z", dist.max_node_z)
          .Add("z_bound", kGateZ)
          .Add("distribution_match", dist.ok);
    }
    kernel_rows->push_back(row.str());
    build_rows->push_back(isa::bench::JsonObject()
                              .Add("instance", in.name)
                              .Add("nodes", g.num_nodes())
                              .Add("arcs", g.num_edges())
                              .Add("code_bytes", code_bytes)
                              .Add("build_ms", build_ms)
                              .str());
    if (!in.bit_exact) RunSkipCutoverSweep(g, probs, cutover_rows);
  }
  if (!all_ok) {
    std::fprintf(stderr,
                 "[bench] coin-column sets diverged from the per-arc walk\n");
  }
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The gated sweeps run after the registered benchmarks (filter them out
  // with --benchmark_filter=X to get just the sweeps + JSON).
  std::vector<std::string> heap_rows, window_rows, kernel_rows, build_rows,
      cutover_rows;
  const bool heap_ok = RunHeapRepairSweep(&heap_rows);
  const bool window_ok = RunWindowRetireSweep(&window_rows);
  const bool kernel_ok =
      RunSamplingKernelSweep(&kernel_rows, &build_rows, &cutover_rows);
  isa::bench::JsonObject out;
  out.Add("bench", "micro_components")
      .Add("hardware_concurrency",
           static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Add("num_nodes", SharedBaGraph().num_nodes())
      .Add("base_sets", kHeapBaseSets)
      .Add("determinism_ok", heap_ok)
      .Add("window_winners_ok", window_ok)
      .Add("coin_sets_ok", kernel_ok)
      .AddRaw("heap_repair", isa::bench::JsonArray(heap_rows))
      .AddRaw("window_retire", isa::bench::JsonArray(window_rows))
      .AddRaw("sampling_kernel", isa::bench::JsonArray(kernel_rows))
      .AddRaw("coin_column_build", isa::bench::JsonArray(build_rows))
      .AddRaw("skip_cutover", isa::bench::JsonArray(cutover_rows));
  isa::bench::WriteBenchJson("BENCH_micro.json", out.str());
  return heap_ok && window_ok && kernel_ok ? 0 : 2;
}
