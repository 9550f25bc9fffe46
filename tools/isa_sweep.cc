// isa_sweep — scenario-matrix driver over the dataset catalog.
//
// Expands dataset × weighting regime × diffusion model × rule × budget ×
// threads × memory budget into a run list (bench/sweep_matrix.h),
// executes every cell through RunTiGreedy, and emits one self-describing
// BENCH_matrix.json ($ISA_BENCH_JSON_DIR or cwd; schema in
// docs/BENCHMARKS.md). Within each (dataset, regime, model, rule, budget)
// group the thread/memory variants must produce bit-identical
// TiResults — any violation makes the driver EXIT NON-ZERO, so CI runs it
// as a determinism gate.
//
//   isa_sweep                         # full preset, scale 1
//   isa_sweep --preset smoke --scale 0.02
//   isa_sweep --only dataset=com-dblp,rule=carm
//   isa_sweep --list                  # print cell ids, run nothing
//
// Presets:
//   full   2 datasets × 3 regimes × {ic} × 2 rules × 2 budgets ×
//          mem {0} × threads {1,2,8}                         (72 cells)
//   smoke  1 dataset × 1 regime × {ic,lt} × 2 rules × 1 budget ×
//          mem {0,0.25} × threads {1,2}                      (16 cells)
// The smoke preset deliberately varies both determinism axes at once
// (threads, memory budget) — it is the ctest mini-matrix.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sweep_matrix.h"
#include "common/flags.h"

namespace {

using isa::bench::SweepAxes;
using isa::bench::SweepRule;
using isa::graph::WeightingRegime;
using isa::rrset::DiffusionModel;

[[noreturn]] void Fail(const isa::Status& status) {
  std::fprintf(stderr, "isa_sweep: error: %s\n",
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Must(isa::Result<T> result) {
  if (!result.ok()) Fail(result.status());
  return std::move(result).value();
}

SweepAxes FullPreset() {
  SweepAxes axes;
  axes.datasets = {"com-dblp", "soc-epinions1"};
  axes.regimes = {WeightingRegime::kWeightedCascade,
                  WeightingRegime::kUniformIc, WeightingRegime::kTopicMix};
  axes.models = {DiffusionModel::kIndependentCascade};
  axes.rules = {SweepRule::kCarm, SweepRule::kCsrm};
  axes.budgets = {1'500, 4'500};
  axes.memory_fractions = {0.0};
  axes.threads = {1, 2, 8};
  return axes;
}

SweepAxes SmokePreset() {
  SweepAxes axes;
  axes.datasets = {"com-dblp"};
  axes.regimes = {WeightingRegime::kWeightedCascade};
  axes.models = {DiffusionModel::kIndependentCascade,
                 DiffusionModel::kLinearThreshold};
  axes.rules = {SweepRule::kCarm, SweepRule::kCsrm};
  axes.budgets = {1'500};
  axes.memory_fractions = {0.0, 0.25};
  axes.threads = {1, 2};
  return axes;
}

std::string AxesJson(const SweepAxes& axes) {
  auto strings = [](const std::vector<std::string>& v) {
    std::vector<std::string> quoted;
    for (const std::string& s : v) quoted.push_back("\"" + s + "\"");
    return isa::bench::JsonArray(quoted);
  };
  std::vector<std::string> regimes, models, rules, budgets, mems, threads;
  for (auto r : axes.regimes) {
    regimes.push_back(std::string("\"") +
                      isa::graph::WeightingRegimeName(r) + "\"");
  }
  for (auto m : axes.models) {
    models.push_back(std::string("\"") + isa::bench::DiffusionModelName(m) +
                     "\"");
  }
  for (auto r : axes.rules) {
    rules.push_back(std::string("\"") + isa::bench::SweepRuleName(r) + "\"");
  }
  for (double b : axes.budgets) budgets.push_back(isa::StrFormat("%g", b));
  for (double f : axes.memory_fractions) {
    mems.push_back(isa::StrFormat("%g", f));
  }
  for (uint32_t t : axes.threads) threads.push_back(std::to_string(t));
  return isa::bench::JsonObject()
      .AddRaw("datasets", strings(axes.datasets))
      .AddRaw("regimes", isa::bench::JsonArray(regimes))
      .AddRaw("models", isa::bench::JsonArray(models))
      .AddRaw("rules", isa::bench::JsonArray(rules))
      .AddRaw("budgets", isa::bench::JsonArray(budgets))
      .AddRaw("memory_fractions", isa::bench::JsonArray(mems))
      .AddRaw("threads", isa::bench::JsonArray(threads))
      .str();
}

void PrintHelp() {
  std::printf(
      "isa_sweep: scenario-matrix driver (BENCH_matrix.json emitter)\n\n"
      "  --preset full|smoke   matrix preset (default full)\n"
      "  --only k=v,...        keep only matching cells; keys: dataset,\n"
      "                        regime, model, rule, budget, mem, threads\n"
      "                        (repeat a key to OR values)\n"
      "  --list                print cell ids and exit (no runs)\n"
      "  --scale S             dataset/budget scale in (0,1] (default 1;\n"
      "                        $ISA_BENCH_SCALE overrides the default)\n"
      "  --seed N              dataset/workload seed (default 2017)\n"
      "  --data-dir DIR        dataset dir (default $ISA_DATA_DIR)\n"
      "  --ads N               advertisers per instance (default 4)\n"
      "  --epsilon E           TI epsilon (default 0.3)\n"
      "  --theta-cap N         per-ad RR-set cap (default 30000)\n"
      "  --csrm-window W       TI-CSRM window, 0 = full (default 2000)\n"
      "  --out FILE            output name (default BENCH_matrix.json,\n"
      "                        written under $ISA_BENCH_JSON_DIR or cwd)\n"
      "  --quiet               suppress per-cell progress on stderr\n\n"
      "Exit status: 0 ok; 1 determinism violation; 2 usage/run error.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> known = {
      "preset",    "only",     "list",        "scale", "seed",
      "data-dir",  "ads",      "epsilon",     "theta-cap",
      "csrm-window", "out",    "quiet",       "help"};
  auto flags = Must(isa::Flags::Parse(argc, argv, known));
  if (flags.Has("help")) {
    PrintHelp();
    return 0;
  }

  const std::string preset = Must(flags.GetString("preset", "full"));
  SweepAxes axes;
  if (preset == "full") {
    axes = FullPreset();
  } else if (preset == "smoke") {
    axes = SmokePreset();
  } else {
    Fail(isa::Status::InvalidArgument("unknown preset: " + preset +
                                      " (expected full | smoke)"));
  }

  auto filter =
      Must(isa::bench::CellFilter::Parse(Must(flags.GetString("only", ""))));
  isa::bench::ExpandStats stats;
  auto cells = Must(isa::bench::ExpandMatrix(axes, filter, &stats));
  if (cells.empty()) {
    Fail(isa::Status::InvalidArgument(
        "the matrix is empty after filtering (--only matched no cells)"));
  }

  if (flags.Has("list")) {
    for (const auto& cell : cells) std::printf("%s\n", cell.id.c_str());
    std::printf("# %zu cells (%zu combinations, %zu invalid skipped, "
                "%zu filtered out)\n",
                stats.cells, stats.total_combinations, stats.skipped_invalid,
                stats.filtered_out);
    return 0;
  }

  isa::bench::SweepRunOptions opt;
  opt.scale = Must(flags.GetDouble("scale", isa::bench::EffectiveScale(1.0)));
  opt.seed =
      static_cast<uint64_t>(Must(flags.GetInt("seed", 2017, 0, INT64_MAX)));
  opt.data_dir = Must(flags.GetString("data-dir", ""));
  opt.num_advertisers =
      static_cast<uint32_t>(Must(flags.GetInt("ads", 4, 1, UINT32_MAX)));
  opt.epsilon = Must(flags.GetDouble("epsilon", 0.3));
  opt.theta_cap = static_cast<uint64_t>(
      Must(flags.GetInt("theta-cap", 30'000, 1, UINT32_MAX)));
  opt.csrm_window = static_cast<uint32_t>(
      Must(flags.GetInt("csrm-window", 2'000, 0, UINT32_MAX)));
  opt.verbose = !flags.Has("quiet");
  // Written so that NaN fails too.
  if (!(opt.scale > 0.0 && opt.scale <= 1.0)) {
    Fail(isa::Status::InvalidArgument("--scale must be in (0, 1]"));
  }
  if (!(opt.epsilon > 0.0 && opt.epsilon < 1.0)) {
    Fail(isa::Status::InvalidArgument(
        isa::StrFormat("--epsilon must be in (0, 1) (got %g)", opt.epsilon)));
  }

  std::fprintf(stderr,
               "[sweep] preset %s: %zu cells (scale %g, seed %llu)\n",
               preset.c_str(), cells.size(), opt.scale,
               static_cast<unsigned long long>(opt.seed));
  auto report = Must(isa::bench::RunMatrix(cells, opt));
  report.stats = stats;

  const std::string out = Must(flags.GetString("out", "BENCH_matrix.json"));
  isa::bench::WriteBenchJson(
      out.c_str(),
      isa::bench::MatrixReportToJson(report, opt, AxesJson(axes)));

  size_t mismatched = 0;
  for (const auto& o : report.outcomes) {
    if (!o.determinism_ok) ++mismatched;
  }
  if (!report.determinism_ok) {
    std::fprintf(stderr,
                 "[sweep] DETERMINISM MISMATCH: %zu of %zu cells differ "
                 "from their group base\n",
                 mismatched, report.outcomes.size());
    return 1;
  }
  std::fprintf(stderr, "[sweep] ok: %zu cells, all determinism groups "
               "bit-identical\n",
               report.outcomes.size());
  return 0;
}
