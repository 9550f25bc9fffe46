// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench runs standalone with no arguments (`for b in build/bench/*`).
// Scale knobs:
//   ISA_BENCH_SCALE   in (0, 1]  — multiplies dataset sizes (default varies
//                                  per bench; chosen so the full suite runs
//                                  in minutes on a laptop).
// Parameters that differ from the paper's (ε, θ caps, graph scale) are
// chosen for laptop budgets and recorded in EXPERIMENTS.md; the comparisons
// reproduce the paper's *shape*, not its absolute numbers.

#ifndef ISA_BENCH_BENCH_UTIL_H_
#define ISA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/incentives.h"
#include "core/ti_greedy.h"
#include "eval/datasets.h"
#include "eval/workload.h"
#include "graph/dataset_catalog.h"

namespace isa::bench {

/// Aborts the bench with a message if `status` is not OK. Benches are
/// top-level programs; failing fast with context beats limping on.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "[bench] %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T MustValue(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Effective scale for a bench whose built-in default is `bench_default`:
/// the ISA_BENCH_SCALE env var, when set, overrides it.
inline double EffectiveScale(double bench_default) {
  const char* raw = std::getenv("ISA_BENCH_SCALE");
  if (raw == nullptr) return bench_default;
  return eval::BenchScaleFromEnv();
}

/// Catalog entry `name` (graph::DatasetCatalog) at `scale` with the
/// catalog's default seed, wrapped for the eval layer.
inline std::unique_ptr<eval::Dataset> LoadDataset(std::string_view name,
                                                  double scale) {
  graph::DatasetCatalog::Options opt;
  opt.scale = scale;
  return MustValue(eval::MakeDataset(graph::DatasetCatalog::Load(name, opt)),
                   "load dataset");
}

/// Median of a non-empty sample (the upper middle for an even count).
inline double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// The paper's per-dataset α grids (Figure 2/3 x-axes).
inline std::vector<double> AlphaGrid(std::string_view dataset,
                                     core::IncentiveModel model) {
  const bool flixster = dataset == "flixster";
  switch (model) {
    case core::IncentiveModel::kLinear:
      return {0.1, 0.2, 0.3, 0.4, 0.5};
    case core::IncentiveModel::kConstant:
      return flixster ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5}
                      : std::vector<double>{6, 7, 8, 9, 10};
    case core::IncentiveModel::kSublinear:
      return flixster ? std::vector<double>{1, 2, 3, 4, 5}
                      : std::vector<double>{11, 12, 13, 14, 15};
    case core::IncentiveModel::kSuperlinear:
      return flixster
                 ? std::vector<double>{0.0001, 0.0002, 0.0003, 0.0004, 0.0005}
                 : std::vector<double>{0.0006, 0.0007, 0.0008, 0.0009, 0.001};
  }
  return {};
}

/// The paper's Table 2 budget ranges, scaled with the dataset. Budgets are
/// scaled harder than node counts (×0.5 on top of the graph scale): the
/// paper chooses budgets "such that the total number of seeds required for
/// all ads to meet their budgets is less than n", i.e. the knapsack — not
/// the partition matroid — is the binding constraint, and a linear budget
/// scale on a sub-linear-spread stand-in would violate that design rule.
inline eval::WorkloadOptions QualityWorkload(std::string_view dataset,
                                             double scale) {
  eval::WorkloadOptions opt;
  opt.num_advertisers = 10;
  const double budget_scale = 0.5 * scale;
  if (dataset == "flixster") {
    opt.budget_min = 6'000 * budget_scale;
    opt.budget_max = 20'000 * budget_scale;
  } else {
    opt.budget_min = 6'000 * budget_scale;
    opt.budget_max = 12'000 * budget_scale;
  }
  opt.cpe_min = 1.0;
  opt.cpe_max = 2.0;
  opt.spread_source = eval::SpreadSource::kRrEstimate;
  opt.spread_effort = 20'000;
  opt.seed = 2017;
  return opt;
}

/// TI options for the quality benches (paper: ε = 0.1 with unbounded θ on a
/// 264 GB server; we default to ε = 0.3 with a θ cap for laptop budgets —
/// see EXPERIMENTS.md).
inline core::TiOptions QualityTiOptions() {
  core::TiOptions opt;
  opt.epsilon = 0.3;
  opt.theta_cap = 30'000;
  opt.window = 0;  // full window, as in the paper's quality runs
  opt.seed = 42;
  return opt;
}

/// One algorithm run, labelled for the tables.
struct AlgoOutcome {
  std::string name;
  double revenue = 0.0;
  double seeding_cost = 0.0;
  uint64_t seeds = 0;
  double seconds = 0.0;
  uint64_t rr_bytes = 0;
};

/// Runs the paper's four algorithms on one instance.
inline std::vector<AlgoOutcome> RunAllFour(const core::RmInstance& instance,
                                           const core::TiOptions& base) {
  std::vector<AlgoOutcome> out;
  auto run = [&](const char* name, auto&& fn) {
    Stopwatch watch;
    auto res = fn(instance, base);
    Check(res.status(), name);
    const core::TiResult& r = res.value();
    out.push_back(AlgoOutcome{name, r.total_revenue, r.total_seeding_cost,
                              r.total_seeds, watch.ElapsedSeconds(),
                              r.total_rr_memory_bytes});
  };
  run("PageRank-GR", [](const auto& i, auto o) { return RunPageRankGr(i, o); });
  run("PageRank-RR", [](const auto& i, auto o) { return RunPageRankRr(i, o); });
  run("TI-CARM", [](const auto& i, auto o) { return core::RunTiCarm(i, o); });
  run("TI-CSRM", [](const auto& i, auto o) { return core::RunTiCsrm(i, o); });
  return out;
}

inline const std::vector<core::IncentiveModel>& AllIncentiveModels() {
  static const std::vector<core::IncentiveModel> kModels = {
      core::IncentiveModel::kLinear, core::IncentiveModel::kConstant,
      core::IncentiveModel::kSublinear, core::IncentiveModel::kSuperlinear};
  return kModels;
}

// --- Machine-readable bench artifacts (BENCH_*.json) ---
//
// Benches print human-readable tables to stdout AND drop a BENCH_<name>.json
// next to them (or into $ISA_BENCH_JSON_DIR) so CI and the checked-in
// results under bench/results/ can be diffed and plotted without scraping.

/// Incremental "{...}" builder — enough JSON for flat bench rows.
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, double v) {
    char buf[64];
    if (!std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "null");
    } else {
      std::snprintf(buf, sizeof(buf), "%.10g", v);
    }
    return AddRaw(key, buf);
  }
  JsonObject& Add(std::string_view key, uint64_t v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(std::string_view key, uint32_t v) {
    return Add(key, static_cast<uint64_t>(v));
  }
  JsonObject& Add(std::string_view key, int v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(std::string_view key, bool v) {
    return AddRaw(key, v ? "true" : "false");
  }
  // Without this overload a string literal would take the bool overload
  // (pointer->bool is a standard conversion, ->string_view user-defined).
  JsonObject& Add(std::string_view key, const char* v) {
    return Add(key, std::string_view(v));
  }
  JsonObject& Add(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return AddRaw(key, quoted);
  }
  /// Pre-serialized value (nested object or array).
  JsonObject& AddRaw(std::string_view key, std::string_view value) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  out += "]";
  return out;
}

/// Writes `json` to $ISA_BENCH_JSON_DIR/<filename> (default: cwd) and
/// reports the path on stderr. Aborts the bench on I/O failure.
inline void WriteBenchJson(const char* filename, const std::string& json) {
  const char* dir = std::getenv("ISA_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
      filename;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

}  // namespace isa::bench

#endif  // ISA_BENCH_BENCH_UTIL_H_
