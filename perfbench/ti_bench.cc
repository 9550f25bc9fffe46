// ti_bench — the repository benchmark program (see README.md).
//
// One run builds one workload's instance through the public API
// (graph::DatasetCatalog -> eval advertisers/spreads -> core incentives ->
// core::RmInstance), times core::RunTiGreedy on it for a fixed wall-clock
// window, checks every solve's output, prices the chosen allocation with
// forward Monte-Carlo simulation (diffusion::CascadeSimulator), and prints
// one JSON result line. With --trace 1 it additionally runs one traced
// solve and replays that solve layer by layer — KPT pilot, RR sampling,
// store append, adoption, spill, coverage removal — through the rrset
// layer's public functions with the solve's own seeds, so the per-layer
// spans time the solve's exact work; the replay must reproduce every ad's
// reported RR revenue bit for bit.
//
// Usage:
//   ti_bench --workload NAME --seed N --seconds S --trace 0|1
//            [--threads T] [--out-dir DIR] [--commit SHA]

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/incentives.h"
#include "core/problem.h"
#include "core/ti_greedy.h"
#include "diffusion/cascade.h"
#include "eval/datasets.h"
#include "eval/workload.h"
#include "graph/dataset_catalog.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_store.h"
#include "rrset/sample_sizer.h"
#include "rrset/tiered_store.h"
#include "topic/tic_model.h"
#include "tracer.h"

namespace isa::perfbench {
namespace {

// ---- Settings shared by every workload (README.md, "Workloads"). ----
constexpr double kEpsilon = 0.2;
constexpr uint64_t kTiSeed = 42;
constexpr double kAlpha = 0.2;
constexpr uint32_t kSpreadSets = 20'000;  // RR sets per ad for σ({u})
constexpr double kCpeMin = 1.0;
constexpr double kCpeMax = 2.0;
constexpr uint32_t kMaxThreads = 4;
// One untimed set-up first, so that the timed ones all start from a warm
// heap; setup_s is the median of the timed ones.
constexpr int kSetupWarmups = 1;
constexpr int kSetupRepeats = 15;
// glibc's mmap and trim thresholds, fixed during set-up (largest mmap
// threshold glibc accepts) and at glibc's initial 128 KiB from the first
// solve on.
constexpr int kSetupMmapThreshold = 32 << 20;
constexpr int kSetupTrimThreshold = 1 << 30;
constexpr int kSolveMallocThreshold = 128 << 10;
// Forward simulation of the chosen allocation: fixed seed and count, so
// sim_revenue repeats exactly for a fixed allocation.
constexpr uint64_t kSimSeed = 7;
constexpr uint32_t kSimCascades = 200;
// Sets drawn by the single-thread sampling-kernel probe.
constexpr uint64_t kKernelProbeSets = 200'000;
// Payment may exceed the budget by rounding only.
constexpr double kBudgetTolerance = 1e-6;
constexpr double kMiB = 1024.0 * 1024.0;

struct WorkloadSpec {
  const char* name;
  const char* dataset;  // graph::DatasetCatalog entry
  double scale;
  graph::WeightingRegime regime;
  uint32_t ads;
  double budget_min;
  double budget_max;
  uint32_t window;  // TI-CSRM window w (0 = full)
  uint64_t theta_cap;
  uint64_t memory_budget_bytes;  // per RR store (0 = fully resident)
};

constexpr WorkloadSpec kWorkloads[] = {
    {"wc-resident", "com-dblp", 0.16,
     graph::WeightingRegime::kWeightedCascade, 4, 500.0, 1000.0, 0, 250'000,
     0},
    {"wc-budget25", "com-dblp", 0.16,
     graph::WeightingRegime::kWeightedCascade, 4, 500.0, 1000.0, 0, 250'000,
     4'225'000},
    {"mix-selection", "soc-epinions1", 0.5,
     graph::WeightingRegime::kTopicMix, 10, 1000.0, 2000.0, 1000, 200'000, 0},
};

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

// ---- Set-up: dataset -> advertisers -> spreads -> incentives -> instance.

// Latin-hypercube draw of h values from U[lo, hi): each value on its own
// is still uniform on the range, but together they hit each of the h
// equal strata once, so their sum — which sets the workload's total budget
// and hence its revenue — barely moves from seed to seed.
std::vector<double> StratifiedUniform(uint32_t h, double lo, double hi,
                                      Rng& rng) {
  std::vector<uint32_t> strata(h);
  for (uint32_t i = 0; i < h; ++i) strata[i] = i;
  for (uint32_t i = h; i > 1; --i) {
    std::swap(strata[i - 1], strata[rng.NextBounded(i)]);
  }
  std::vector<double> out(h);
  for (uint32_t i = 0; i < h; ++i) {
    out[i] = lo + (hi - lo) * (strata[i] + rng.NextDouble()) / h;
  }
  return out;
}

struct Setup {
  std::unique_ptr<eval::Dataset> dataset;
  std::unique_ptr<core::RmInstance> instance;
  double load_s = 0.0;      // DatasetCatalog::Load + topic arrays
  double spreads_s = 0.0;   // MakeAdvertisers + ComputeSingletonSpreads
  double instance_s = 0.0;  // ComputeIncentives + RmInstance::Create
  double total_s = 0.0;
};

Result<Setup> BuildSetup(const WorkloadSpec& w, uint64_t seed) {
  Setup s;
  Stopwatch total;
  Stopwatch stage;

  graph::DatasetCatalog::Options copt;
  copt.scale = w.scale;
  copt.seed = seed;
  copt.cache_synthetic = false;
  auto loaded = graph::DatasetCatalog::Load(w.dataset, w.regime, copt);
  if (!loaded.ok()) return loaded.status();
  auto ds = std::make_unique<eval::Dataset>();
  ds->name = w.dataset;
  ds->graph = std::move(loaded.value().graph);
  auto topics = topic::TopicEdgeProbabilities::Create(
      ds->graph, std::move(loaded.value().arc_weights));
  if (!topics.ok()) return topics.status();
  ds->topics = std::move(topics).value();
  ds->num_topics = ds->topics.num_topics();
  s.load_s = stage.ElapsedSeconds();

  stage.Reset();
  eval::WorkloadOptions wopt;
  wopt.num_advertisers = w.ads;
  wopt.budget_min = w.budget_min;
  wopt.budget_max = w.budget_max;
  wopt.cpe_min = kCpeMin;
  wopt.cpe_max = kCpeMax;
  wopt.incentive_model = core::IncentiveModel::kLinear;
  wopt.alpha = kAlpha;
  wopt.spread_source = eval::SpreadSource::kRrEstimate;
  wopt.spread_effort = kSpreadSets;
  wopt.seed = seed;
  auto ads = eval::MakeAdvertisers(*ds, wopt);
  if (!ads.ok()) return ads.status();
  // Same ranges as MakeAdvertisers' independent draws, stratified.
  Rng rng(HashSeed(seed, 0xb0d6e7));
  const std::vector<double> budgets =
      StratifiedUniform(w.ads, w.budget_min, w.budget_max, rng);
  const std::vector<double> cpes =
      StratifiedUniform(w.ads, kCpeMin, kCpeMax, rng);
  for (uint32_t j = 0; j < w.ads; ++j) {
    ads.value()[j].budget = budgets[j];
    ads.value()[j].cpe = cpes[j];
  }
  auto spreads = eval::ComputeSingletonSpreads(*ds, ads.value(), wopt);
  if (!spreads.ok()) return spreads.status();
  s.spreads_s = stage.ElapsedSeconds();

  stage.Reset();
  std::vector<std::vector<double>> incentives;
  for (const std::vector<double>& sigma : spreads.value()) {
    auto c = core::ComputeIncentives(wopt.incentive_model, kAlpha, sigma);
    if (!c.ok()) return c.status();
    incentives.push_back(std::move(c).value());
  }
  auto inst = core::RmInstance::Create(ds->graph, ds->topics,
                                       std::move(ads).value(),
                                       std::move(incentives));
  if (!inst.ok()) return inst.status();
  s.instance = std::make_unique<core::RmInstance>(std::move(inst).value());
  s.instance_s = stage.ElapsedSeconds();

  s.dataset = std::move(ds);
  s.total_s = total.ElapsedSeconds();
  return s;
}

core::TiOptions SolveOptions(const WorkloadSpec& w, uint32_t threads,
                             const std::string& spill_dir) {
  core::TiOptions opt;
  opt.candidate_rule = core::CandidateRule::kCoverageCostRatio;
  opt.selection_rule = core::SelectionRule::kMaxRate;
  opt.propagation = rrset::DiffusionModel::kIndependentCascade;
  opt.epsilon = kEpsilon;
  opt.seed = kTiSeed;
  opt.window = w.window;
  opt.theta_cap = w.theta_cap;
  opt.num_threads = threads;
  opt.rr_memory_budget_bytes = w.memory_budget_bytes;
  opt.spill_directory = spill_dir;
  return opt;
}

// ---- Output checks (each failure counts against the run). ----

// Empty when the solve passes every check, else the first failure.
std::string CheckSolve(const WorkloadSpec& w, const core::RmInstance& inst,
                       const Result<core::TiResult>& res) {
  if (!res.ok()) return "RunTiGreedy: " + res.status().ToString();
  const core::TiResult& r = res.value();
  if (!r.allocation.IsDisjoint(inst.num_nodes())) {
    return "allocation violates the partition matroid (not disjoint)";
  }
  for (uint32_t j = 0; j < inst.num_ads(); ++j) {
    if (r.ad_stats[j].payment > inst.budget(j) + kBudgetTolerance) {
      return "ad " + std::to_string(j) + " pays more than its budget";
    }
  }
  // A budget workload must prove that its cold tier ran.
  if (w.memory_budget_bytes > 0 &&
      (r.total_spilled_bytes == 0 || r.total_chunks_read == 0)) {
    return "memory budget set but nothing was spilled or read back";
  }
  return "";
}

uint64_t AllocationDigest(const core::Allocation& a) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over (ad, seeds..., end)
  auto mix = [&h](uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (size_t j = 0; j < a.seed_sets.size(); ++j) {
    mix(j);
    for (graph::NodeId v : a.seed_sets[j]) mix(v);
    mix(UINT64_MAX);
  }
  return h;
}

// Counts solves and their failures; keeps the first allocation as the
// reference every later solve's digest must match.
struct SolveLedger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::optional<core::TiResult> reference;
  uint64_t reference_digest = 0;

  // Records one solve; returns false when it failed a check.
  bool Record(const WorkloadSpec& w, const core::RmInstance& inst,
              Result<core::TiResult>& res) {
    ++attempted;
    std::string why = CheckSolve(w, inst, res);
    if (why.empty()) {
      const uint64_t d = AllocationDigest(res.value().allocation);
      if (!reference) {
        reference_digest = d;
        reference = std::move(res).value();
      } else if (d != reference_digest) {
        why = "allocation digest differs from the run's first solve";
      }
    }
    if (why.empty()) return true;
    ++failed;
    std::fprintf(stderr, "ti_bench: solve %llu failed: %s\n",
                 static_cast<unsigned long long>(attempted), why.c_str());
    return false;
  }
};

// ---- Forward simulation: the host's real revenue. ----

struct SimResult {
  double revenue = 0.0;
  uint64_t cascades = 0;
};

SimResult SimulateRevenue(const core::RmInstance& inst,
                          const core::Allocation& a, Tracer& tracer) {
  SimResult out;
  diffusion::CascadeSimulator sim(inst.graph());
  for (uint32_t j = 0; j < inst.num_ads(); ++j) {
    if (a.seed_sets[j].empty()) continue;  // σ(∅) = 0
    const int span = tracer.Begin("diffusion.sim", Tracer::kNoParent, j);
    const double sigma = sim.EstimateSpread(
        inst.ad_probs(j), a.seed_sets[j], kSimCascades, HashSeed(kSimSeed, j));
    tracer.End(span);
    out.revenue += inst.cpe(j) * sigma;
    out.cascades += kSimCascades;
  }
  return out;
}

// ---- Traced replay of one solve, layer by layer. ----

struct ReplayCounts {
  uint64_t pilot_sets = 0;
  uint64_t sets = 0;
  uint64_t postings = 0;
  uint64_t store_bytes = 0;  // hot stores after adoption, before spill
  uint64_t spilled_bytes = 0;
  uint64_t spill_chunks = 0;
  uint64_t removes = 0;
  uint64_t chunks_read = 0;
  uint64_t chunks_skipped = 0;
  uint32_t revenue_mismatches = 0;
};

// Redoes the solve's rrset work for every ad with RunTiGreedy's own seeds
// (pilot HashSeed(seed, 1000 + j), sampler HashSeed(seed, j)), timing each
// public call as one span under `parent`. The final coverage must give
// back the solve's RR revenue bit for bit.
ReplayCounts Replay(const WorkloadSpec& w, const core::RmInstance& inst,
                    const core::TiResult& solved, uint32_t threads,
                    const std::string& spill_dir, Tracer& tracer,
                    int parent) {
  ReplayCounts c;
  ThreadPool pool(threads);
  const uint32_t h = inst.num_ads();
  const graph::NodeId n = inst.num_nodes();
  const double dn = static_cast<double>(n);
  const bool windowed = w.window != 0 && w.window < n;
  std::vector<graph::NodeId> touched;
  for (uint32_t j = 0; j < h; ++j) {
    const int ad_span = tracer.Begin("replay.ad", parent, static_cast<int>(j));
    rrset::SampleSizerOptions so;
    so.epsilon = kEpsilon;
    so.theta_cap = w.theta_cap;
    so.seed = HashSeed(kTiSeed, 1000 + j);
    so.model = rrset::DiffusionModel::kIndependentCascade;
    // The solve runs the stores' pilots side by side on the pool; the
    // replay runs them one after another, so each gets the whole pool
    // (the pilot widths are bit-identical either way).
    so.pool = &pool;
    int span = tracer.Begin("rrset.pilot", ad_span, j);
    const rrset::SampleSizer sizer(inst.graph(), inst.ad_probs(j), so);
    tracer.End(span);
    c.pilot_sets += sizer.pilot_sets();

    const uint64_t theta = solved.ad_stats[j].theta;
    rrset::ParallelSamplerOptions po;
    po.num_threads = threads;
    po.pool = &pool;
    rrset::ParallelSampler sampler(inst.graph(), inst.ad_probs(j),
                                   rrset::DiffusionModel::kIndependentCascade,
                                   HashSeed(kTiSeed, j), po);
    std::vector<graph::NodeId> nodes;
    std::vector<uint32_t> sizes;
    span = tracer.Begin("rrset.sample", ad_span, j);
    sampler.SampleToBuffer(0, theta, &nodes, &sizes);
    tracer.End(span);
    c.sets += theta;
    c.postings += nodes.size();

    auto store = std::make_shared<rrset::RrStore>(n);
    span = tracer.Begin("rrset.append", ad_span, j);
    store->AppendBatch(nodes, sizes, &pool, sampler.base_seed());
    tracer.End(span);
    nodes = {};
    sizes = {};

    rrset::RrCollection view(store);
    span = tracer.Begin("rrset.adopt", ad_span, j);
    view.AdoptUpTo(theta, {}, &pool);
    tracer.End(span);
    c.store_bytes += store->MemoryBytes();

    std::optional<rrset::TieredRrStore> tier;
    if (w.memory_budget_bytes > 0) {
      rrset::TieredStoreOptions to;
      to.rr_memory_budget_bytes = w.memory_budget_bytes;
      to.spill_directory = spill_dir;
      tier.emplace(store, to);
      span = tracer.Begin("rrset.spill", ad_span, j);
      tier->MaybeSpill(theta, &pool);
      tracer.End(span);
    }

    for (graph::NodeId v : solved.allocation.seed_sets[j]) {
      span = tracer.Begin("rrset.remove", ad_span, j);
      view.RemoveCoveredBy(v, windowed ? &touched : nullptr, &pool);
      tracer.End(span);
      ++c.removes;
    }
    c.spilled_bytes += store->SpilledBytes();
    c.spill_chunks += store->SpillChunks();
    c.chunks_read += store->chunks_read();
    c.chunks_skipped += store->chunks_skipped();

    // The engine's revenue expression, term for term.
    const double replayed = inst.cpe(j) * dn * view.covered_fraction();
    if (std::bit_cast<uint64_t>(replayed) !=
        std::bit_cast<uint64_t>(solved.ad_stats[j].revenue)) {
      ++c.revenue_mismatches;
      std::fprintf(stderr,
                   "ti_bench: replay of ad %u gives RR revenue %.17g, the "
                   "solve reported %.17g\n",
                   j, replayed, solved.ad_stats[j].revenue);
    }
    tracer.End(ad_span);
  }
  return c;
}

// Sets per second of the sampling kernel on one thread (ad 0's
// probabilities, the solve's substream seed).
double KernelRateOneThread(const core::RmInstance& inst, Tracer& tracer) {
  rrset::ParallelSamplerOptions po;
  po.num_threads = 1;
  rrset::ParallelSampler sampler(inst.graph(), inst.ad_probs(0),
                                 rrset::DiffusionModel::kIndependentCascade,
                                 HashSeed(kTiSeed, 0), po);
  std::vector<graph::NodeId> nodes;
  std::vector<uint32_t> sizes;
  const int span = tracer.Begin("rrset.sample_1t");
  sampler.SampleToBuffer(0, kKernelProbeSets, &nodes, &sizes);
  tracer.End(span);
  return static_cast<double>(kKernelProbeSets) / tracer.Seconds(span);
}

// ---- Environment and output. ----

uint32_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<uint32_t>(n) : 1;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Removes a directory tree when it goes out of scope, on error paths too.
struct DirRemover {
  std::filesystem::path path;
  ~DirRemover() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"unit\": \"";
    out += metrics[i].unit;
    out += "\"}";
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 2017;
  double seconds = 10.0;
  bool trace = false;
  uint32_t threads = 0;  // 0 = min(available CPUs, kMaxThreads)
  std::string out_dir = ".bench_build/out";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "ti_bench: %s needs a value\n", argv[i]);
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      a->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--threads") {
      a->threads = static_cast<uint32_t>(std::strtoul(value, &end, 10));
    } else if (flag == "--out-dir") {
      a->out_dir = value;
    } else if (flag == "--commit") {
      a->commit = value;
    } else {
      std::fprintf(stderr, "ti_bench: unknown flag %s\n", argv[i - 1]);
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      std::fprintf(stderr, "ti_bench: bad value for %s: %s\n", argv[i - 1],
                   value);
      return false;
    }
  }
  if (a->seconds <= 0.0) {
    std::fprintf(stderr, "ti_bench: --seconds must be positive\n");
    return false;
  }
  return true;
}

int Run(const Args& args) {
  const WorkloadSpec* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "ti_bench: unknown workload '%s' (known:",
                 args.workload.c_str());
    for (const WorkloadSpec& k : kWorkloads) {
      std::fprintf(stderr, " %s", k.name);
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const uint32_t nproc = AvailableCpus();
  const uint32_t threads =
      args.threads != 0 ? args.threads : std::min(nproc, kMaxThreads);
  if (threads > nproc) {
    std::fprintf(stderr,
                 "ti_bench: refusing to run %u threads on %u available "
                 "CPUs\n",
                 threads, nproc);
    return 2;
  }
  // Inputs come from --seed alone: never pick up a real dataset file.
  unsetenv("ISA_DATA_DIR");

  const std::filesystem::path spill_dir =
      std::filesystem::path(args.out_dir) /
      ("spill-" + std::to_string(getpid()));
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    std::fprintf(stderr, "ti_bench: cannot create %s: %s\n",
                 spill_dir.c_str(), ec.message().c_str());
    return 2;
  }
  const DirRemover remove_spill_dir{spill_dir};

  char env[1024];
  std::snprintf(env, sizeof(env),
                "{\"nproc\": %u, \"threads\": %u, \"cpu_model\": \"%s\", "
                "\"build_type\": \"%s\", \"git_commit\": \"%s\", "
                "\"workload\": \"%s\", \"workload_seed\": %llu, "
                "\"run_seconds\": %g, \"trace\": %d}",
                nproc, threads, JsonEscape(CpuModel()).c_str(),
                ISA_BENCH_BUILD_TYPE, JsonEscape(args.commit).c_str(), w->name,
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
  std::printf("{\"env\": %s}\n", env);
  std::fflush(stdout);

  // Set-up, repeated; the last instance is the one solved. By default glibc
  // raises its mmap threshold as large blocks are freed, so whether a
  // set-up's arrays come from fresh, faulting pages or from the reused heap
  // can switch part-way through a run, which moves set-up time by up to 40%
  // between runs of one seed. Fixed thresholds keep every timed set-up on
  // the reused heap.
  mallopt(M_MMAP_THRESHOLD, kSetupMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, kSetupTrimThreshold);
  Setup setup;
  std::vector<double> setup_s, load_s, spreads_s, instance_s;
  for (int i = 0; i < kSetupWarmups + kSetupRepeats; ++i) {
    setup = {};  // release the previous instance first
    auto built = BuildSetup(*w, args.seed);
    if (!built.ok()) {
      std::fprintf(stderr, "ti_bench: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup = std::move(built).value();
    if (i < kSetupWarmups) continue;
    setup_s.push_back(setup.total_s);
    load_s.push_back(setup.load_s);
    spreads_s.push_back(setup.spreads_s);
    instance_s.push_back(setup.instance_s);
  }
  // Solves allocate from fresh pages above 128 KiB, as a new process does,
  // and free heap goes back to the kernel, so peak_rss_mib measures a
  // solve's own footprint.
  mallopt(M_MMAP_THRESHOLD, kSolveMallocThreshold);
  mallopt(M_TRIM_THRESHOLD, kSolveMallocThreshold);
  const core::RmInstance& inst = *setup.instance;
  const core::TiOptions opt = SolveOptions(*w, threads, spill_dir.string());

  // Timed solves, tracing off, until another solve would overrun the
  // window.
  SolveLedger ledger;
  std::vector<double> solve_s;
  Stopwatch window;
  double last_s = 0.0;
  do {
    // Hand the previous solve's freed heap back to the kernel, so that
    // the process peak measures one solve's footprint rather than how
    // much free memory the allocator's per-thread arenas happened to
    // retain (on wc-budget25 that alone swung the peak by 25%).
    malloc_trim(0);
    Stopwatch watch;
    auto res = core::RunTiGreedy(inst, opt);
    last_s = watch.ElapsedSeconds();
    if (ledger.Record(*w, inst, res)) solve_s.push_back(last_s);
  } while (window.ElapsedSeconds() + last_s <= args.seconds);
  const double peak_rss_mib = PeakRssMiB();
  std::fprintf(stderr, "ti_bench: %s: %zu set-ups (s):", w->name,
               setup_s.size());
  for (double t : setup_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\nti_bench: %s: %zu timed solves (s):", w->name,
               solve_s.size());
  for (double t : solve_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\n");

  Tracer tracer(w->name);
  std::optional<SimResult> sim;
  if (ledger.reference) {
    sim = SimulateRevenue(inst, ledger.reference->allocation, tracer);
  }

  std::vector<Metric> metrics;
  bool replay_exact = true;
  if (!args.trace) {
    const uint64_t solves = ledger.attempted;
    metrics = {
        {"solve_s", solve_s.empty() ? 0.0 : Median(solve_s), "s"},
        {"setup_s", Median(setup_s), "s"},
        {"sim_revenue", sim ? sim->revenue : 0.0, "revenue"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
        {"ok_frac",
         static_cast<double>(solves - ledger.failed) /
             static_cast<double>(solves),
         "ratio"},
    };
  } else {
    // One traced solve, then its layer-by-layer replay.
    const int solve_span = tracer.Begin("core.solve");
    const double cpu0 = CpuSeconds();
    auto res = core::RunTiGreedy(inst, opt);
    const double cpu1 = CpuSeconds();
    tracer.End(solve_span);
    const double traced_solve_s = tracer.Seconds(solve_span);
    const bool traced_ok = ledger.Record(*w, inst, res);
    if (traced_ok && res.ok()) {
      const core::TiResult& r = res.value();
      const int replay_span = tracer.Begin("replay");
      const ReplayCounts c = Replay(*w, inst, r, threads, spill_dir.string(),
                                    tracer, replay_span);
      tracer.End(replay_span);
      replay_exact = c.revenue_mismatches == 0;
      const double kernel_1t = KernelRateOneThread(inst, tracer);

      double replayed_s = 0.0;
      for (const char* s : {"rrset.pilot", "rrset.sample", "rrset.append",
                            "rrset.adopt", "rrset.spill", "rrset.remove"}) {
        replayed_s += tracer.TotalSeconds(s);
      }
      uint64_t resident_peak = 0;
      for (const core::TiAdStats& st : r.ad_stats) {
        resident_peak += st.rr_resident_peak_bytes;
      }
      if (w->memory_budget_bytes == 0) resident_peak = r.total_rr_memory_bytes;
      const uint64_t considered = c.chunks_read + c.chunks_skipped;
      const double sample_s = tracer.TotalSeconds("rrset.sample");
      metrics = {
          {"graph.load_s", Median(load_s), "s"},
          {"graph.nodes", static_cast<double>(inst.num_nodes()), "count"},
          {"graph.arcs", static_cast<double>(inst.graph().num_edges()),
           "count"},
          {"eval.spreads_s", Median(spreads_s), "s"},
          {"eval.instance_s", Median(instance_s), "s"},
          {"rrset.pilot_s", tracer.TotalSeconds("rrset.pilot"), "s"},
          {"rrset.pilot_sets", static_cast<double>(c.pilot_sets), "count"},
          {"rrset.sample_s", sample_s, "s"},
          {"rrset.sets", static_cast<double>(c.sets), "count"},
          {"rrset.postings", static_cast<double>(c.postings), "count"},
          {"rrset.sets_per_s", static_cast<double>(c.sets) / sample_s,
           "1/s"},
          {"rrset.sample_1t_sets_per_s", kernel_1t, "1/s"},
          {"rrset.append_s", tracer.TotalSeconds("rrset.append"), "s"},
          {"rrset.adopt_s", tracer.TotalSeconds("rrset.adopt"), "s"},
          {"rrset.store_mib", static_cast<double>(c.store_bytes) / kMiB,
           "MiB"},
          {"rrset.spill_s", tracer.TotalSeconds("rrset.spill"), "s"},
          {"rrset.spilled_mib", static_cast<double>(c.spilled_bytes) / kMiB,
           "MiB"},
          {"rrset.spill_chunks", static_cast<double>(c.spill_chunks),
           "count"},
          {"rrset.remove_s", tracer.TotalSeconds("rrset.remove"), "s"},
          {"rrset.removes", static_cast<double>(c.removes), "count"},
          {"rrset.chunks_read", static_cast<double>(c.chunks_read), "count"},
          {"rrset.chunks_skipped", static_cast<double>(c.chunks_skipped),
           "count"},
          {"rrset.chunk_skip_ratio",
           considered == 0 ? 0.0
                           : static_cast<double>(c.chunks_skipped) /
                                 static_cast<double>(considered),
           "ratio"},
          {"rrset.resident_peak_mib", static_cast<double>(resident_peak) / kMiB,
           "MiB"},
          {"core.solve_s", traced_solve_s, "s"},
          {"core.select_est_s", traced_solve_s - replayed_s, "s"},
          {"core.cpu_util", (cpu1 - cpu0) / (traced_solve_s * threads),
           "ratio"},
          {"core.seeds", static_cast<double>(r.total_seeds), "count"},
          {"core.theta", static_cast<double>(r.total_theta), "count"},
          {"core.theta_cap_hits", static_cast<double>(r.total_theta_cap_hits),
           "count"},
          {"core.growth_events", static_cast<double>(r.total_growth_events),
           "count"},
          {"core.rr_revenue", r.total_revenue, "revenue"},
          {"diffusion.sim_s", tracer.TotalSeconds("diffusion.sim"), "s"},
          {"diffusion.cascades",
           sim ? static_cast<double>(sim->cascades) : 0.0, "count"},
          {"trace.overhead_ratio",
           solve_s.empty() ? 0.0 : traced_solve_s / Median(solve_s), "ratio"},
      };
    }
    const std::filesystem::path trace_path =
        std::filesystem::path(args.out_dir) /
        (std::string(w->name) + "-seed" + std::to_string(args.seed) +
         ".trace.json");
    if (tracer.WriteChromeJson(trace_path.string(), env)) {
      std::fprintf(stderr, "ti_bench: trace written to %s\n",
                   trace_path.c_str());
    } else {
      std::fprintf(stderr, "ti_bench: cannot write %s\n", trace_path.c_str());
    }
  }
  const bool correct = ledger.failed == 0 && replay_exact && !metrics.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted),
      static_cast<unsigned long long>(ledger.failed),
      MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace isa::perfbench

int main(int argc, char** argv) {
  isa::perfbench::Args args;
  if (!isa::perfbench::ParseArgs(argc, argv, &args)) return 2;
  try {
    return isa::perfbench::Run(args);
  } catch (const std::exception& e) {
    // E.g. a cold-tier read failure inside the replay: no result line.
    std::fprintf(stderr, "ti_bench: %s\n", e.what());
    return 1;
  }
}
