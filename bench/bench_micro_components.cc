// Google-benchmark microbenchmarks for the library's hot components:
// graph generation, Eq. 1 probability mixing, forward cascades, RR
// sampling, coverage maintenance, and weighted PageRank — plus three gated
// sweeps that run after the registered benchmarks and emit
// BENCH_micro.json via the shared ISA_BENCH_JSON_DIR plumbing: heap repair
// (incremental CELF repair vs full rebuild at several coverage-delta
// densities), window retire throughput (the selection window's tournament
// tree vs a linear argmax scan over the same window states) and the RR
// sampling kernel (the coin column vs the per-arc probability walk, plus
// the column's build time).

#include <benchmark/benchmark.h>

#include <algorithm>
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

const Graph& SharedBaGraph() {
  static const Graph g = isa::graph::GenerateBarabasiAlbert(
                             {.num_nodes = 20'000, .edges_per_node = 5,
                              .seed = 3})
                             .value();
  return g;
}

const isa::topic::TopicEdgeProbabilities& SharedWc() {
  static const auto topics =
      isa::topic::MakeWeightedCascade(SharedBaGraph(), 1).value();
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
      isa::topic::MakeDegreeScaledRandom(g, 10, 7).value();
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
// share a probability (rr_sampler.h). This sweep samples the same ids
// twice on one thread — with the real coin column and with an all-mixed
// column, which sends every node down the per-arc NextBernoulli(probs[e])
// loop the coin replaced — and gates on an FNV-1a hash of the sampled
// sets agreeing. Instances are the perfbench stand-ins: a weighted-cascade
// Barabási–Albert graph (wc-resident's) and a topic-mix power-law graph
// (mix-selection's, uniform topic mix). The column's build is timed on
// its own (`coin_column_build`). Returns false on a hash mismatch.
constexpr uint64_t kKernelSets = 100'000;
constexpr int kKernelReps = 5;
constexpr int kBuildReps = 21;

uint64_t HashSets(const std::vector<uint32_t>& sizes,
                  const std::vector<isa::graph::NodeId>& nodes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  for (uint32_t s : sizes) mix(s);  // set boundaries, then the members
  for (isa::graph::NodeId v : nodes) mix(v);
  return h;
}

bool RunSamplingKernelSweep(std::vector<std::string>* kernel_rows,
                            std::vector<std::string>* build_rows) {
  struct Instance {
    const char* name;
    const char* dataset;
    isa::graph::WeightingRegime regime;
    double scale;
  };
  const Instance instances[] = {
      {"wc-ba", "com-dblp", isa::graph::WeightingRegime::kWeightedCascade,
       0.16},
      {"topic-mix", "soc-epinions1", isa::graph::WeightingRegime::kTopicMix,
       0.5},
  };
  std::printf("\nsampling kernel: coin column vs per-arc walk, %llu sets, "
              "1 thread, median of %d (column build: median of %d)\n",
              static_cast<unsigned long long>(kKernelSets), kKernelReps,
              kBuildReps);
  std::printf("%-10s %8s %9s %9s %9s %14s %16s %9s\n", "instance", "nodes",
              "arcs", "uniform", "build_ms", "coin_sets/s", "per_arc_sets/s",
              "speedup");
  bool hashes_match = true;
  for (const Instance& in : instances) {
    isa::graph::DatasetCatalog::Options copt;
    copt.scale = in.scale;
    copt.seed = 1;
    copt.cache_synthetic = false;
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
      coins = isa::rrset::BuildCoinColumn(g, probs);
      build_seconds.push_back(w.ElapsedSeconds());
    }
    const auto uniform = static_cast<uint64_t>(std::count_if(
        coins->begin(), coins->end(),
        [](uint64_t c) { return c != isa::rrset::kCoinMixed; }));

    const auto ic = isa::rrset::DiffusionModel::kIndependentCascade;
    isa::rrset::RrSampler coin(g, probs, ic, coins);
    isa::rrset::RrSampler per_arc(
        g, probs, ic,
        std::make_shared<const isa::rrset::CoinColumn>(
            g.num_nodes(), isa::rrset::kCoinMixed));
    std::vector<double> coin_s, per_arc_s;
    uint64_t coin_hash = 0, per_arc_hash = 0;
    std::vector<uint32_t> sizes;
    std::vector<isa::graph::NodeId> nodes;
    for (int r = 0; r < kKernelReps; ++r) {  // alternate to share drift
      isa::Stopwatch w;
      coin.SampleIds(/*base_seed=*/29, 0, kKernelSets, &sizes, &nodes);
      coin_s.push_back(w.ElapsedSeconds());
      coin_hash = HashSets(sizes, nodes);
      w.Reset();
      per_arc.SampleIds(/*base_seed=*/29, 0, kKernelSets, &sizes, &nodes);
      per_arc_s.push_back(w.ElapsedSeconds());
      per_arc_hash = HashSets(sizes, nodes);
    }
    const bool match = coin_hash == per_arc_hash;
    hashes_match = hashes_match && match;
    const double build_ms = 1e3 * isa::bench::Median(build_seconds);
    const double coin_rate = kKernelSets / isa::bench::Median(coin_s);
    const double per_arc_rate = kKernelSets / isa::bench::Median(per_arc_s);
    std::printf("%-10s %8u %9llu %9llu %9.3f %14.0f %16.0f %8.2fx%s\n",
                in.name, g.num_nodes(),
                static_cast<unsigned long long>(g.num_edges()),
                static_cast<unsigned long long>(uniform), build_ms, coin_rate,
                per_arc_rate, coin_rate / per_arc_rate,
                match ? "" : "  SET HASH MISMATCH");
    char hash_str[24];
    std::snprintf(hash_str, sizeof(hash_str), "0x%016llx",
                  static_cast<unsigned long long>(coin_hash));
    kernel_rows->push_back(isa::bench::JsonObject()
                               .Add("instance", in.name)
                               .Add("nodes", g.num_nodes())
                               .Add("arcs", g.num_edges())
                               .Add("uniform_nodes", uniform)
                               .Add("sets", kKernelSets)
                               .Add("coin_sets_per_s", coin_rate)
                               .Add("per_arc_sets_per_s", per_arc_rate)
                               .Add("speedup", coin_rate / per_arc_rate)
                               .Add("sets_hash", hash_str)
                               .Add("sets_match", match)
                               .str());
    build_rows->push_back(isa::bench::JsonObject()
                              .Add("instance", in.name)
                              .Add("nodes", g.num_nodes())
                              .Add("arcs", g.num_edges())
                              .Add("build_ms", build_ms)
                              .str());
  }
  if (!hashes_match) {
    std::fprintf(stderr,
                 "[bench] coin-column sets diverged from the per-arc walk\n");
  }
  return hashes_match;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The gated sweeps run after the registered benchmarks (filter them out
  // with --benchmark_filter=X to get just the sweeps + JSON).
  std::vector<std::string> heap_rows, window_rows, kernel_rows, build_rows;
  const bool heap_ok = RunHeapRepairSweep(&heap_rows);
  const bool window_ok = RunWindowRetireSweep(&window_rows);
  const bool kernel_ok = RunSamplingKernelSweep(&kernel_rows, &build_rows);
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
      .AddRaw("coin_column_build", isa::bench::JsonArray(build_rows));
  isa::bench::WriteBenchJson("BENCH_micro.json", out.str());
  return heap_ok && window_ok && kernel_ok ? 0 : 2;
}
