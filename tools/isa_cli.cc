// isa_cli — run an incentivized-social-advertising campaign from the shell.
//
// Loads a SNAP-format edge list (or generates a synthetic graph), sets up h
// advertisers, prices incentives, runs the chosen algorithm, and prints the
// allocation summary (optionally the full seed lists as CSV).
//
// Examples:
//   isa_cli --graph soc-Epinions1.txt --ads 5 --budget 5000 --alpha 0.2
//   isa_cli --synthetic ba --nodes 10000 --ads 3 --algorithm ti-carm
//   isa_cli --synthetic rmat --nodes 65536 --incentives superlinear --alpha 0.0001 --algorithm ti-csrm --window 5000 --seeds-csv out.csv

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "common/failpoint.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "core/incentives.h"
#include "core/ti_greedy.h"
#include "diffusion/cascade.h"
#include "diffusion/linear_threshold.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "rrset/singleton_estimator.h"
#include "topic/tic_model.h"

namespace {

constexpr const char* kUsage = R"(isa_cli — incentivized social advertising campaigns

  --graph PATH          SNAP-style edge list ("src dst" per line)
  --synthetic KIND      ba | rmat | er | powerlaw (instead of --graph)
  --nodes N             synthetic graph size             [10000]
  --ads H               number of advertisers            [3]
  --budget B            budget per advertiser            [1000]
  --cpe C               cost per engagement              [1.0]
  --incentives MODEL    linear|constant|sublinear|superlinear  [linear]
  --alpha A             incentive scale                  [0.2]
  --algorithm NAME      ti-csrm | ti-carm | pagerank-gr | pagerank-rr [ti-csrm]
  --model PROP          ic | lt (propagation model)      [ic]
  --epsilon E           RR estimation accuracy           [0.3]
  --window W            TI-CSRM window size (0 = full; the Fig. 4
                        quality/latency trade-off knob)  [0]
  --theta-cap T         max RR sets per advertiser       [500000]
  --threads T           RR sampling workers (0 = hardware) [0]
  --share-samples       share RR stores across identical ads
  --rr-memory-budget B  resident bytes per RR store before the oldest
                        fully-adopted sets spill to disk (0 = keep
                        everything resident; spilling never changes
                        the computed allocation)             [0]
  --spill-dir PATH      directory for spill chunk files (default:
                        system temp dir; files are removed on exit)
  --spill-chunk-bytes B member-bytes target per spill chunk (> 0;
                        smaller chunks have tighter node
                        envelopes, each pays a postings index
                        on disk; never changes computed
                        results)                       [4194304]
  --failpoints SPEC     deterministic fault injection for chaos runs,
                        e.g. "spill.read.eio@every:1" (see
                        common/failpoint.h for the grammar; cold-read
                        faults are healed by re-sampling — watch the
                        degraded column and recovery counters)
  --seed S              master RNG seed (results are identical
                        at any --threads and any --rr-memory-budget
                        for a fixed seed)                   [42]
  --seeds-csv PATH      write the chosen (ad, seed, incentive) rows as CSV
  --validate            re-estimate revenue by Monte-Carlo after selection
)";

int Fail(const isa::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Numeric flag reads with a range check. Flags::GetInt/GetDouble report a
// malformed value as an error, which .value_or() would swallow and run
// with the default instead. These keep the first bad flag's error in
// `*error` (returning the default), so main reads every numeric flag and
// fails once, before any graph work.
int64_t IntFlag(const isa::Flags& flags, const std::string& name,
                int64_t def, int64_t lo, int64_t hi, isa::Status* error) {
  auto value = flags.GetInt(name, def, lo, hi);
  if (!value.ok()) {
    if (error->ok()) *error = value.status();
    return def;
  }
  return value.value();
}

// A double flag that must be finite and in (0, below).
double PositiveDoubleFlag(const isa::Flags& flags, const std::string& name,
                          double def, double below, isa::Status* error) {
  auto value = flags.GetDouble(name, def);
  if (!value.ok()) {
    if (error->ok()) *error = value.status();
    return def;
  }
  const double v = value.value();
  if (!(v > 0.0 && v < below && std::isfinite(v))) {
    std::string msg = "--" + name + " must be > 0";
    if (std::isfinite(below)) msg += isa::StrFormat(" and < %g", below);
    if (error->ok()) {
      *error = isa::Status::InvalidArgument(
          msg + isa::StrFormat(" (got %g)", v));
    }
    return def;
  }
  return v;
}

// A boolean flag: bare, true/false or 1/0. Flags::GetBool reports any
// other value as an error, kept in `*error` like IntFlag's.
bool BoolFlag(const isa::Flags& flags, const std::string& name,
              isa::Status* error) {
  auto value = flags.GetBool(name, false);
  if (!value.ok()) {
    if (error->ok()) *error = value.status();
    return false;
  }
  return value.value();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = isa::Flags::Parse(
      argc, argv,
      {"graph", "synthetic", "nodes", "ads", "budget", "cpe", "incentives",
       "alpha", "algorithm", "model", "epsilon", "window", "theta-cap",
       "threads", "share-samples", "rr-memory-budget", "spill-dir",
       "spill-chunk-bytes", "failpoints", "seed", "seeds-csv", "validate",
       "help"});
  if (!flags_result.ok()) {
    std::fputs(kUsage, stderr);
    return Fail(flags_result.status());
  }
  const isa::Flags& flags = flags_result.value();
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  // ---- Numeric and boolean flags (before any expensive work). ----
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  isa::Status bad_flag;
  const auto nodes = static_cast<isa::graph::NodeId>(
      IntFlag(flags, "nodes", 10'000, 1, INT32_MAX, &bad_flag));
  const auto h = static_cast<uint32_t>(
      IntFlag(flags, "ads", 3, 1, UINT32_MAX, &bad_flag));
  const auto threads = static_cast<uint32_t>(
      IntFlag(flags, "threads", 0, 0, UINT32_MAX, &bad_flag));
  const auto window = static_cast<uint32_t>(
      IntFlag(flags, "window", 0, 0, UINT32_MAX, &bad_flag));
  const auto theta_cap = static_cast<uint64_t>(
      IntFlag(flags, "theta-cap", 500'000, 1, UINT32_MAX, &bad_flag));
  const auto seed = static_cast<uint64_t>(
      IntFlag(flags, "seed", 42, 0, INT64_MAX, &bad_flag));
  // 0 disables spilling; a negative budget is a typo.
  const int64_t rr_budget =
      IntFlag(flags, "rr-memory-budget", 0, 0, INT64_MAX, &bad_flag);
  const double epsilon =
      PositiveDoubleFlag(flags, "epsilon", 0.3, 1.0, &bad_flag);
  const double budget =
      PositiveDoubleFlag(flags, "budget", 1000.0, kUnbounded, &bad_flag);
  const double cpe = PositiveDoubleFlag(flags, "cpe", 1.0, kUnbounded,
                                        &bad_flag);
  const double alpha =
      PositiveDoubleFlag(flags, "alpha", 0.2, kUnbounded, &bad_flag);
  const bool share_samples = BoolFlag(flags, "share-samples", &bad_flag);
  const bool validate = BoolFlag(flags, "validate", &bad_flag);
  if (!bad_flag.ok()) return Fail(bad_flag);

  // Spill-tier flag validation: a spill directory without a budget would
  // silently do nothing.
  if (flags.Has("spill-dir") && rr_budget == 0) {
    return Fail(isa::Status::InvalidArgument(
        "--spill-dir only applies with a memory budget; add "
        "--rr-memory-budget or drop --spill-dir"));
  }
  const std::string spill_dir = flags.GetString("spill-dir", "").value_or("");
  if (!spill_dir.empty()) {
    // Catch the typo here, not minutes later when the first spill barrier
    // reports a misleading ResourceExhausted from deep inside the run.
    std::error_code ec;
    if (!std::filesystem::is_directory(spill_dir, ec)) {
      return Fail(isa::Status::InvalidArgument(
          "--spill-dir is not an existing directory: " + spill_dir));
    }
  }
  // Chunk size. Like --spill-dir it only matters with a budget,
  // and a malformed value is a typo worth rejecting before graph work
  // starts. Note: .value_or() would silently swallow a non-numeric value,
  // so check the Result explicitly.
  const auto chunk_bytes_result =
      flags.GetInt("spill-chunk-bytes", 4ll << 20);
  if (!chunk_bytes_result.ok()) return Fail(chunk_bytes_result.status());
  const int64_t spill_chunk_bytes = chunk_bytes_result.value();
  if (flags.Has("spill-chunk-bytes")) {
    if (spill_chunk_bytes <= 0) {
      return Fail(isa::Status::InvalidArgument(
          "--spill-chunk-bytes must be > 0 bytes"));
    }
    if (rr_budget == 0) {
      return Fail(isa::Status::InvalidArgument(
          "--spill-chunk-bytes only applies with a memory budget; add "
          "--rr-memory-budget or drop --spill-chunk-bytes"));
    }
  }

  // Deterministic fault injection: validate the whole spec up front (a
  // typo'd entry fails here, in milliseconds, with the offending entry
  // named), then arm it for the run.
  const std::string failpoints =
      flags.GetString("failpoints", "").value_or("");
  if (!failpoints.empty()) {
    if (auto parsed = isa::FailPoints::Parse(failpoints); !parsed.ok()) {
      return Fail(parsed.status());
    }
    if (auto armed = isa::FailPoints::Arm(failpoints); !armed.ok()) {
      return Fail(armed);
    }
  }

  // ---- Graph. ----
  isa::Result<isa::graph::Graph> graph_result(
      isa::Status::InvalidArgument("need --graph or --synthetic"));
  const std::string path = flags.GetString("graph", "").value_or("");
  const std::string kind = flags.GetString("synthetic", "").value_or("");
  if (!path.empty()) {
    graph_result = isa::graph::LoadEdgeListText(path);
  } else if (kind == "ba") {
    graph_result = isa::graph::GenerateBarabasiAlbert(
        {.num_nodes = nodes, .edges_per_node = 4, .seed = seed});
  } else if (kind == "rmat") {
    isa::graph::RmatOptions opt;
    opt.scale = 1;
    while ((1u << opt.scale) < nodes) ++opt.scale;
    opt.num_edges = static_cast<uint64_t>(nodes) * 8;
    opt.seed = seed;
    graph_result = isa::graph::GenerateRmat(opt);
  } else if (kind == "er") {
    graph_result = isa::graph::GenerateErdosRenyi(
        {.num_nodes = nodes, .num_edges = static_cast<uint64_t>(nodes) * 8,
         .seed = seed});
  } else if (kind == "powerlaw") {
    graph_result = isa::graph::GeneratePowerLaw(
        {.num_nodes = nodes, .num_edges = static_cast<uint64_t>(nodes) * 7,
         .seed = seed});
  } else if (!kind.empty()) {
    return Fail(isa::Status::InvalidArgument("unknown --synthetic: " + kind));
  }
  if (!graph_result.ok()) return Fail(graph_result.status());
  const isa::graph::Graph& graph = graph_result.value();
  std::fprintf(stderr, "graph: %u nodes, %u arcs\n", graph.num_nodes(),
               graph.num_edges());

  // ---- Influence model (weighted cascade; valid for both IC and LT). ----
  auto topics_result = isa::topic::MakeWeightedCascade(graph, 1);
  if (!topics_result.ok()) return Fail(topics_result.status());
  const auto& topics = topics_result.value();

  // ---- Advertisers & incentives. ----
  auto model_result = isa::core::ParseIncentiveModel(
      flags.GetString("incentives", "linear").value_or("linear"));
  if (!model_result.ok()) return Fail(model_result.status());

  auto spreads_result = isa::rrset::EstimateAllSingletonSpreads(
      graph, topics.topic(0), 50'000, seed + 1);
  if (!spreads_result.ok()) return Fail(spreads_result.status());
  auto incentives_result = isa::core::ComputeIncentives(
      model_result.value(), alpha, spreads_result.value());
  if (!incentives_result.ok()) return Fail(incentives_result.status());

  isa::core::AdvertiserSpec spec;
  spec.cpe = cpe;
  spec.budget = budget;
  spec.gamma = isa::topic::TopicDistribution::Uniform(1);
  auto instance_result = isa::core::RmInstance::Create(
      graph, topics, std::vector<isa::core::AdvertiserSpec>(h, spec),
      std::vector<std::vector<double>>(h, incentives_result.value()));
  if (!instance_result.ok()) return Fail(instance_result.status());
  const auto& instance = instance_result.value();

  // ---- Algorithm. ----
  isa::core::TiOptions options;
  options.epsilon = epsilon;
  options.window = window;
  options.theta_cap = theta_cap;
  options.num_threads = threads;
  options.seed = seed;
  options.share_samples = share_samples;
  options.rr_memory_budget_bytes = static_cast<uint64_t>(rr_budget);
  options.spill_directory = spill_dir;
  options.spill_chunk_bytes = static_cast<uint64_t>(spill_chunk_bytes);
  const std::string prop = flags.GetString("model", "ic").value_or("ic");
  if (prop == "lt") {
    options.propagation = isa::rrset::DiffusionModel::kLinearThreshold;
  } else if (prop != "ic") {
    return Fail(isa::Status::InvalidArgument("unknown --model: " + prop));
  }

  const std::string algo =
      flags.GetString("algorithm", "ti-csrm").value_or("ti-csrm");
  isa::Result<isa::core::TiResult> run(
      isa::Status::InvalidArgument("unknown --algorithm: " + algo));
  if (algo == "ti-csrm") run = isa::core::RunTiCsrm(instance, options);
  else if (algo == "ti-carm") run = isa::core::RunTiCarm(instance, options);
  else if (algo == "pagerank-gr") {
    run = isa::core::RunPageRankGr(instance, options);
  } else if (algo == "pagerank-rr") {
    run = isa::core::RunPageRankRr(instance, options);
  }
  if (!run.ok()) return Fail(run.status());
  const isa::core::TiResult& result = run.value();

  // ---- Report. ----
  const bool spilling = options.rr_memory_budget_bytes > 0;
  std::vector<std::string> columns = {
      "ad",     "seeds",  "revenue", "incentives", "payment", "budget",
      "theta",  "growth", "cap hits", "pilot",     "RR memory"};
  if (spilling) {
    columns.insert(columns.end(), {"spilled", "chunks", "scans",
                                   "chunks read", "chunks skipped",
                                   "resident peak", "degraded"});
  }
  isa::TableWriter table(columns);
  for (uint32_t j = 0; j < h; ++j) {
    const auto& st = result.ad_stats[j];
    table.AddCell(uint64_t{j});
    table.AddCell(st.seeds);
    table.AddCell(st.revenue, 2);
    table.AddCell(st.seeding_cost, 2);
    table.AddCell(st.payment, 2);
    table.AddCell(instance.budget(j), 2);
    table.AddCell(st.theta);
    table.AddCell(st.sample_growth_events);
    table.AddCell(st.theta_cap_hits);
    table.AddCell(std::string(st.pilot_converged ? "ok" : "weak"));
    table.AddCell(isa::HumanBytes(st.rr_memory_bytes));
    if (spilling) {
      table.AddCell(isa::HumanBytes(st.spilled_bytes));
      table.AddCell(st.spill_chunks);
      table.AddCell(st.scan_reloads);
      table.AddCell(st.chunks_read);
      table.AddCell(st.chunks_skipped);
      table.AddCell(isa::HumanBytes(st.rr_resident_peak_bytes));
      // degraded=yes: this ad survived a permanent cold-tier fault (chunk
      // re-sampled, eviction disabled, or θ-growth capped).
      table.AddCell(std::string(
          st.degradation_events + st.growth_admission_caps > 0 ? "yes"
                                                               : "no"));
    }
    if (auto s = table.EndRow(); !s.ok()) return Fail(s);
  }
  table.Print(std::cout);
  std::printf("%s: total revenue %.2f, seeding cost %.2f, %llu seeds, "
              "%.2fs, RR memory %s; θ-growth: %llu adoptions "
              "(%u ads engaged, %u idle, %llu cap hits)\n",
              algo.c_str(), result.total_revenue, result.total_seeding_cost,
              (unsigned long long)result.total_seeds,
              result.elapsed_seconds,
              isa::HumanBytes(result.total_rr_memory_bytes).c_str(),
              (unsigned long long)result.total_growth_events,
              result.ads_growth_engaged, result.ads_growth_idle,
              (unsigned long long)result.total_theta_cap_hits);
  if (spilling) {
    std::printf("spill tier: budget %s per store, %s spilled in %llu "
                "chunks; %llu cold lookups read %llu chunks, skipped %llu "
                "(envelope/postings); recovery: %llu retries (%llu "
                "succeeded), %llu degradations, %llu re-sampled sets, %llu "
                "growth caps\n",
                isa::HumanBytes(options.rr_memory_budget_bytes).c_str(),
                isa::HumanBytes(result.total_spilled_bytes).c_str(),
                (unsigned long long)result.total_spill_chunks,
                (unsigned long long)result.total_scan_reloads,
                (unsigned long long)result.total_chunks_read,
                (unsigned long long)result.total_chunks_skipped,
                (unsigned long long)result.total_spill_retries,
                (unsigned long long)result.total_spill_retry_successes,
                (unsigned long long)result.total_degradation_events,
                (unsigned long long)result.total_recovered_sets,
                (unsigned long long)result.total_growth_admission_caps);
  }

  const std::string csv =
      flags.GetString("seeds-csv", "").value_or("");
  if (!csv.empty()) {
    isa::TableWriter rows({"ad", "seed_node", "incentive"});
    for (uint32_t j = 0; j < h; ++j) {
      for (auto u : result.allocation.seed_sets[j]) {
        rows.AddCell(uint64_t{j});
        rows.AddCell(uint64_t{u});
        rows.AddCell(instance.incentive(j, u), 4);
        if (auto s = rows.EndRow(); !s.ok()) return Fail(s);
      }
    }
    if (auto s = rows.WriteCsvFile(csv); !s.ok()) return Fail(s);
    std::fprintf(stderr, "wrote %s\n", csv.c_str());
  }

  if (validate) {
    // Cascades under the model the RR sets were drawn under.
    isa::diffusion::CascadeSimulator ic_sim(graph);
    isa::diffusion::LtCascadeSimulator lt_sim(graph);
    double mc_revenue = 0.0;
    for (uint32_t j = 0; j < h; ++j) {
      const auto& seeds = result.allocation.seed_sets[j];
      if (seeds.empty()) continue;
      const auto probs = instance.ad_probs(j);
      const double spread =
          prop == "lt" ? lt_sim.EstimateSpread(probs, seeds, 2000, seed + 7)
                       : ic_sim.EstimateSpread(probs, seeds, 2000, seed + 7);
      mc_revenue += instance.cpe(j) * spread;
    }
    std::printf("Monte-Carlo validation (%s): revenue %.2f (RR estimate "
                "%.2f)\n",
                prop.c_str(), mc_revenue, result.total_revenue);
  }
  return 0;
}
