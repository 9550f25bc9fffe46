// Figure 5: scalability of TI-CARM and TI-CSRM (window 5000) on DBLP* and
// LIVEJOURNAL* with weighted-cascade probabilities, cpe = 1, α = 0.2,
// ε = 0.3, linear incentives on the out-degree proxy.
//   (a, b) running time vs number of advertisers h, fixed budget;
//   (c, d) running time vs budget, h = 5.
// Paper headline: near-linear growth in h; TI-CSRM slightly slower than
// TI-CARM; budget growth is mostly linear for CSRM, flatter for CARM.
//
// Rows are streamed to stdout as they complete (this bench is the longest
// in the suite; streaming keeps partial progress useful under timeouts).
// LIVEJOURNAL* is restricted to the h sweep: its windowed TI-CSRM(5000)
// runs take minutes per point at laptop scale (EXPERIMENTS.md), and the
// budget trend is already exhibited on DBLP*.
//
// Beyond the paper's figure, two threads-vs-wallclock sweeps exercise the
// deterministic parallel engine, each point the median of 5 timed runs:
//   - raw RR sampling throughput (ParallelSampler::SampleToBuffer on a
//     Barabási–Albert workload), with an FNV hash of the store one
//     untimed SampleAppend builds per thread count; each timed run
//     repeats the batch for at least 200 ms, and the batch's append to a
//     fresh store (columns and index) is timed apart;
//   - end-to-end RunTiGreedy (TI-CSRM(5000), DBLP*, h = 5), the shared-
//     thread-pool path: parallel advertiser init + pilot, sampling, index
//     build and coverage adoption.
// Both sweeps verify bit-identical results across thread counts (every
// e2e run is checked) and the bench EXITS NON-ZERO on a mismatch — CI runs
// it as a determinism gate. Speed-ups are recorded, not gated: shared CI
// runners are too noisy for a speed-up bound.
// Everything is also emitted to BENCH_fig5.json (see bench_util.h).

#include <cstdio>
#include <optional>
#include <thread>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"

namespace {

std::vector<std::string> g_paper_rows;     // JSON rows of the paper sweeps
std::vector<std::string> g_sampler_rows;   // JSON rows of the sampler sweep
std::vector<std::string> g_e2e_rows;       // JSON rows of the e2e sweep

constexpr int kSweepReps = 5;             // timed runs per sweep point
constexpr double kMinSamplerRunS = 0.2;   // wall time per timed sampler run

struct DatasetPlan {
  const char* dataset;               // catalog name
  double fixed_budget;               // for the h sweep
  uint32_t max_h;                    // cap on the h sweep
  std::vector<double> budget_sweep;  // for the budget sweep (h = 5)
};

void RunBoth(const isa::core::RmInstance& inst, const char* dataset,
             const char* sweep, double x) {
  auto opt = isa::bench::QualityTiOptions();
  opt.epsilon = 0.3;
  opt.theta_cap = 60'000;
  struct Algo {
    const char* name;
    uint32_t window;
    isa::core::CandidateRule cand;
    isa::core::SelectionRule sel;
  };
  const Algo algos[] = {
      {"TI-CARM", 0, isa::core::CandidateRule::kCoverage,
       isa::core::SelectionRule::kMaxMarginalRevenue},
      {"TI-CSRM(5000)", 5000, isa::core::CandidateRule::kCoverageCostRatio,
       isa::core::SelectionRule::kMaxRate},
  };
  for (const Algo& algo : algos) {
    auto o = opt;
    o.window = algo.window;
    o.candidate_rule = algo.cand;
    o.selection_rule = algo.sel;
    isa::Stopwatch watch;
    auto res = isa::core::RunTiGreedy(inst, o);
    isa::bench::Check(res.status(), algo.name);
    const double seconds = watch.ElapsedSeconds();
    std::printf("%-13s  %-7s  %-7.0f  %-14s  %8.3f  %6llu  %10.1f  %s\n",
                dataset, sweep, x, algo.name, seconds,
                (unsigned long long)res.value().total_seeds,
                res.value().total_revenue,
                isa::HumanBytes(res.value().total_rr_memory_bytes).c_str());
    std::fflush(stdout);
    g_paper_rows.push_back(isa::bench::JsonObject()
                               .Add("dataset", dataset)
                               .Add("sweep", sweep)
                               .Add("x", x)
                               .Add("algorithm", algo.name)
                               .Add("seconds", seconds)
                               .Add("seeds", res.value().total_seeds)
                               .Add("revenue", res.value().total_revenue)
                               .Add("rr_bytes",
                                    res.value().total_rr_memory_bytes)
                               .str());
  }
}

isa::core::RmInstance MakeInstance(const isa::eval::Dataset& ds, uint32_t h,
                                   double budget) {
  isa::eval::WorkloadOptions opt;
  opt.num_advertisers = h;
  opt.budget_min = opt.budget_max = budget;
  opt.cpe_min = opt.cpe_max = 1.0;
  opt.incentive_model = isa::core::IncentiveModel::kLinear;
  opt.alpha = 0.2;
  opt.spread_source = isa::eval::SpreadSource::kOutDegreeProxy;
  auto ads = isa::bench::MustValue(isa::eval::MakeAdvertisers(ds, opt),
                                   "MakeAdvertisers");
  auto spreads = isa::bench::MustValue(
      isa::eval::ComputeSingletonSpreads(ds, ads, opt), "spreads");
  std::vector<std::vector<double>> incentives;
  for (const auto& s : spreads) {
    incentives.push_back(isa::bench::MustValue(
        isa::core::ComputeIncentives(opt.incentive_model, opt.alpha, s),
        "incentives"));
  }
  return isa::bench::MustValue(
      isa::core::RmInstance::Create(ds.graph, ds.topics, ads,
                                    std::move(incentives)),
      "RmInstance");
}

// FNV-1a over the store's set members — a cheap fingerprint for the
// cross-thread-count determinism gate.
uint64_t HashStore(const isa::rrset::RrStore& store) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    h = (h ^ x) * 0x100000001b3ULL;
  };
  mix(store.num_sets());
  for (uint64_t r = 0; r < store.num_sets(); ++r) {
    const auto members = store.SetMembers(r);
    mix(members.size());  // set boundaries matter, not just the node stream
    for (isa::graph::NodeId v : members) mix(v);
  }
  return h;
}

// Threads-vs-wallclock sweep for the parallel RR-set sampling engine.
// Emits one row per thread count with sampling throughput (sets/s, median
// of kSweepReps runs), speedup vs the 1-thread row and the seconds the
// batch's append and index build take on their own, so BENCH_fig5.json
// captures the whole speedup curve. Returns false on a cross-thread-count
// hash mismatch.
bool RunParallelSamplerSweep(double scale) {
  const auto n = static_cast<isa::graph::NodeId>(100'000 * scale);
  isa::graph::BarabasiAlbertOptions gopt;
  gopt.num_nodes = n;
  gopt.edges_per_node = 5;
  gopt.seed = 3;
  const auto g = isa::bench::MustValue(isa::graph::GenerateBarabasiAlbert(gopt),
                                       "GenerateBarabasiAlbert");
  const std::vector<double> probs(g.num_edges(), 0.05);
  // 400 sets per node: at scale 0.06 a 1-thread batch takes over 50 ms,
  // so pool dispatch and the per-batch worker samplers do not swamp the
  // per-worker work.
  const uint64_t sets = static_cast<uint64_t>(40'000'000 * scale);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("\n=== Parallel RR sampling: threads vs wall-clock "
              "(BA n=%u, m=%llu, %llu sets, hw=%u cores) ===\n\n",
              g.num_nodes(), (unsigned long long)g.num_edges(),
              (unsigned long long)sets, hw);
  std::printf("%-8s  %-8s  %9s  %12s  %8s  %10s  %18s\n", "threads",
              "workers", "s/batch", "sets/sec", "speedup", "append_s",
              "store hash");

  bool deterministic = true;
  double base_seconds = 0.0;
  uint64_t base_hash = 0;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    isa::ThreadPool pool(threads);
    isa::rrset::ParallelSamplerOptions popt;
    popt.num_threads = threads;
    popt.pool = &pool;
    isa::rrset::ParallelSampler sampler(
        g, probs, isa::rrset::DiffusionModel::kIndependentCascade,
        /*base_seed=*/42, popt);
    uint64_t hash = 0;
    {
      isa::rrset::RrStore store(g.num_nodes());
      sampler.SampleAppend(store, sets);
      hash = HashStore(store);
    }
    if (threads == 1) {
      base_hash = hash;
    } else if (hash != base_hash) {
      deterministic = false;
    }
    // Each timed run re-samples the batch into caller buffers until
    // kMinSamplerRunS has passed; the point is the median run's seconds
    // per batch. Then the run's last batch is appended to a fresh store,
    // columns and index, on the sampler's pool, timed on its own.
    std::vector<double> batch_seconds, append_seconds;
    std::vector<isa::graph::NodeId> nodes;
    std::vector<uint32_t> sizes;
    for (int rep = 0; rep < kSweepReps; ++rep) {
      uint64_t batches = 0;
      isa::Stopwatch watch;
      do {
        sampler.SampleToBuffer(0, sets, &nodes, &sizes);
        ++batches;
      } while (watch.ElapsedSeconds() < kMinSamplerRunS);
      batch_seconds.push_back(watch.ElapsedSeconds() / batches);
      isa::rrset::RrStore store(g.num_nodes());
      watch.Reset();
      store.AppendBatch(nodes, sizes, sampler.pool(), sampler.base_seed());
      append_seconds.push_back(watch.ElapsedSeconds());
    }
    const double seconds = isa::bench::Median(batch_seconds);
    const double append_s = isa::bench::Median(append_seconds);
    if (threads == 1) base_seconds = seconds;
    // "workers" is what actually ran: the pool caps the request at 4x the
    // hardware threads.
    std::printf("%-8u  %-8u  %9.4f  %12.0f  %7.2fx  %10.4f  0x%016llx\n",
                threads, sampler.WorkerCountFor(sets), seconds,
                static_cast<double>(sets) / seconds, base_seconds / seconds,
                append_s, (unsigned long long)hash);
    std::fflush(stdout);
    char hash_str[24];
    std::snprintf(hash_str, sizeof(hash_str), "0x%016llx",
                  (unsigned long long)hash);
    g_sampler_rows.push_back(
        isa::bench::JsonObject()
            .Add("threads", threads)
            .Add("workers", sampler.WorkerCountFor(sets))
            .Add("runs", kSweepReps)
            .Add("seconds", seconds)
            .Add("sets_per_sec", static_cast<double>(sets) / seconds)
            .Add("speedup", base_seconds / seconds)
            .Add("append_index_seconds", append_s)
            .Add("store_hash", hash_str)
            .str());
  }
  return deterministic;
}

// End-to-end RunTiGreedy threads sweep on the fig5 workload: one shared
// pool drives advertiser init (pilot + initial sample + heap), sampling,
// index builds and adoption. Each point is the median of kSweepReps
// solves; every solve's result must equal the first 1-thread solve's.
// Returns false on mismatch.
bool RunE2eThreadSweep(const isa::eval::Dataset& ds, double fixed_budget) {
  auto inst = MakeInstance(ds, /*h=*/5, fixed_budget);
  auto opt = isa::bench::QualityTiOptions();
  opt.epsilon = 0.3;
  opt.theta_cap = 60'000;
  opt.window = 5000;
  opt.candidate_rule = isa::core::CandidateRule::kCoverageCostRatio;
  opt.selection_rule = isa::core::SelectionRule::kMaxRate;

  std::printf("\n=== End-to-end RunTiGreedy (TI-CSRM(5000), %s, h=5): "
              "threads vs wall-clock ===\n\n",
              ds.name.c_str());
  std::printf("%-8s  %9s  %8s  %6s  %10s\n", "threads", "seconds", "speedup",
              "seeds", "revenue");

  bool deterministic = true;
  double base_seconds = 0.0;
  std::optional<isa::core::TiResult> base;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    auto o = opt;
    o.num_threads = threads;
    std::vector<double> run_seconds;
    isa::core::TiResult r;
    for (int rep = 0; rep < kSweepReps; ++rep) {
      isa::Stopwatch watch;
      auto res = isa::core::RunTiGreedy(inst, o);
      isa::bench::Check(res.status(), "e2e sweep");
      run_seconds.push_back(watch.ElapsedSeconds());
      r = std::move(res).value();
      if (!base) {
        base = r;
        continue;
      }
      // The documented invariant is the whole TiResult, not just the
      // chosen seeds — gate on the per-ad revenue/payment/θ doubles
      // bitwise too.
      bool same = r.allocation.seed_sets == base->allocation.seed_sets &&
                  r.total_revenue == base->total_revenue &&
                  r.total_seeding_cost == base->total_seeding_cost &&
                  r.total_theta == base->total_theta &&
                  r.ad_stats.size() == base->ad_stats.size();
      for (size_t j = 0; same && j < r.ad_stats.size(); ++j) {
        const auto& a = base->ad_stats[j];
        const auto& b = r.ad_stats[j];
        same = a.theta == b.theta && a.revenue == b.revenue &&
               a.payment == b.payment && a.seeding_cost == b.seeding_cost &&
               a.latent_seed_size == b.latent_seed_size;
      }
      if (!same) deterministic = false;
    }
    const double seconds = isa::bench::Median(run_seconds);
    if (threads == 1) base_seconds = seconds;
    std::printf("%-8u  %9.3f  %7.2fx  %6llu  %10.1f\n", threads, seconds,
                base_seconds / seconds, (unsigned long long)r.total_seeds,
                r.total_revenue);
    std::fflush(stdout);
    g_e2e_rows.push_back(isa::bench::JsonObject()
                             .Add("threads", threads)
                             .Add("runs", kSweepReps)
                             .Add("seconds", seconds)
                             .Add("speedup", base_seconds / seconds)
                             .Add("seeds", r.total_seeds)
                             .Add("revenue", r.total_revenue)
                             .Add("rr_bytes", r.total_rr_memory_bytes)
                             .str());
  }
  return deterministic;
}

}  // namespace

int main() {
  const double scale = isa::bench::EffectiveScale(0.12);
  std::printf("=== Figure 5: scalability of TI-CARM / TI-CSRM (scale %.2f) "
              "===\n\n",
              scale);
  std::printf("%-13s  %-7s  %-7s  %-14s  %8s  %6s  %10s  %s\n", "dataset",
              "sweep", "x", "algorithm", "seconds", "seeds", "revenue",
              "RR memory");

  const DatasetPlan plans[] = {
      {"com-dblp", 1'500 * scale, 20, {1'000, 2'000, 3'000, 4'000}},
      {"soc-livejournal1", 3'000 * scale, 10, {}},
  };

  bool e2e_deterministic = true;
  for (const DatasetPlan& plan : plans) {
    auto ds = isa::bench::LoadDataset(plan.dataset, scale);
    // (a, b): h sweep at fixed budget.
    for (uint32_t h : {1u, 5u, 10u, 15u, 20u}) {
      if (h > plan.max_h) break;
      auto inst = MakeInstance(*ds, h, plan.fixed_budget);
      RunBoth(inst, ds->name.c_str(), "h", h);
    }
    // (c, d): budget sweep at h = 5.
    for (double budget : plan.budget_sweep) {
      auto inst = MakeInstance(*ds, 5, budget * scale);
      RunBoth(inst, ds->name.c_str(), "budget", budget * scale);
    }
    if (ds->name == "com-dblp") {
      e2e_deterministic = RunE2eThreadSweep(*ds, plan.fixed_budget);
    }
  }

  const bool sampler_deterministic = RunParallelSamplerSweep(scale);

  isa::bench::WriteBenchJson(
      "BENCH_fig5.json",
      isa::bench::JsonObject()
          .Add("bench", "fig5_scalability")
          .Add("scale", scale)
          .Add("hardware_concurrency",
               std::max(1u, std::thread::hardware_concurrency()))
          .Add("determinism_ok", sampler_deterministic && e2e_deterministic)
          .AddRaw("paper_sweeps", isa::bench::JsonArray(g_paper_rows))
          .AddRaw("e2e_thread_sweep", isa::bench::JsonArray(g_e2e_rows))
          .AddRaw("sampler_thread_sweep",
                  isa::bench::JsonArray(g_sampler_rows))
          .str());

  if (!sampler_deterministic || !e2e_deterministic) {
    std::fprintf(stderr,
                 "[bench] DETERMINISM MISMATCH across thread counts "
                 "(sampler_ok=%d, e2e_ok=%d)\n",
                 sampler_deterministic, e2e_deterministic);
    return 1;
  }
  return 0;
}
