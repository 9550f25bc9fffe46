// Scenario-matrix sweep: dataset × weighting regime × diffusion model ×
// algorithm rule × budget × threads × memory budget.
//
// The expander turns a `SweepAxes` declaration into a flat, stably-ordered
// list of `SweepCell`s — genmake-style: every cell carries a deterministic
// id ("com-dblp/wc/ic/carm/b1500/m0/t1") so two captures of the same
// matrix can be diffed cell by cell (tools/check_bench_regression.py).
// Combinations that are invalid by construction (Linear Threshold needs
// Σ in-weights ≤ 1, which uniform-IC does not guarantee) are skipped and
// counted, never silently emitted.
//
// Cells group by everything the determinism invariant says cannot change
// the result: (dataset, regime, model, rule, budget) is the GROUP; threads
// and memory fraction are VARIANTS within it. The runner
// executes each group's cells in order (memory fraction 0 first, so the
// unbudgeted run both anchors the fraction → bytes conversion and serves
// as the determinism base) and gates every variant against the base on the
// full TiResult comparator — same fields as bench_fig5's e2e gate. A
// violation fails the whole matrix; the driver exits non-zero.
//
// Memory fractions follow the bench_table3 convention: fraction f > 0
// means rr_memory_budget_bytes = f × (the group's unbudgeted run's largest
// per-ad rr_memory_bytes — about one store's footprint; the budget is per
// store). If filtering removed the unbudgeted cell, a hidden probe run
// re-establishes the anchor (and the determinism base). A budgeted cell
// that spills nothing fails the run: it would not test the cold tier.

#ifndef ISA_BENCH_SWEEP_MATRIX_H_
#define ISA_BENCH_SWEEP_MATRIX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/ti_greedy.h"
#include "graph/dataset_catalog.h"
#include "rrset/rr_sampler.h"

namespace isa::bench {

/// Algorithm axis: the paper's two TI rules.
enum class SweepRule {
  kCarm,  // coverage candidates, max-marginal-revenue selection
  kCsrm,  // coverage/cost candidates (windowed), max-rate selection
};

const char* SweepRuleName(SweepRule rule);
Result<SweepRule> ParseSweepRule(std::string_view name);

const char* DiffusionModelName(rrset::DiffusionModel model);
Result<rrset::DiffusionModel> ParseDiffusionModel(std::string_view name);

/// The declared matrix. Axis order is also expansion order (outermost
/// first): dataset, regime, model, rule, budget | mem, threads.
/// The last two are the variant axes — see the file comment.
struct SweepAxes {
  std::vector<std::string> datasets;  // DatasetCatalog names
  std::vector<graph::WeightingRegime> regimes;
  std::vector<rrset::DiffusionModel> models;
  std::vector<SweepRule> rules;
  /// Unscaled budgets; the runner multiplies by its scale (budgets track
  /// graph size, per the paper's "seeds required < n" design rule).
  std::vector<double> budgets;
  std::vector<double> memory_fractions;  // 0 = unbudgeted
  std::vector<uint32_t> threads;
};

/// One expanded run. `id` and `group` are stable across hosts and runs.
struct SweepCell {
  std::string id;     // "<group>/m<frac>/t<threads>"
  std::string group;  // "<dataset>/<regime>/<model>/<rule>/b<budget>"
  std::string dataset;
  graph::WeightingRegime regime = graph::WeightingRegime::kWeightedCascade;
  rrset::DiffusionModel model = rrset::DiffusionModel::kIndependentCascade;
  SweepRule rule = SweepRule::kCarm;
  double budget = 0.0;           // unscaled axis value
  double memory_fraction = 0.0;  // 0 = unbudgeted
  uint32_t num_threads = 1;
};

/// `--only` filter: comma-separated key=value constraints, ANDed. Keys:
/// dataset, regime, model, rule, budget, mem, threads.
/// Repeating a key ORs its values ("dataset=a,dataset=b").
class CellFilter {
 public:
  /// Empty spec = match everything.
  static Result<CellFilter> Parse(std::string_view spec);
  bool Matches(const SweepCell& cell) const;
  bool empty() const { return constraints_.empty(); }

 private:
  // key -> accepted values (strings, compared against the cell's axis
  // rendering so filter syntax and cell ids always agree).
  std::vector<std::pair<std::string, std::vector<std::string>>> constraints_;
};

struct ExpandStats {
  size_t total_combinations = 0;  // full cross product
  size_t skipped_invalid = 0;     // LT × uniform-IC (weights not LT-valid)
  size_t filtered_out = 0;        // removed by the --only filter
  size_t cells = 0;               // emitted
};

/// Expands axes into the stably-ordered cell list. Axis values are taken
/// as given (duplicates are not collapsed); empty axes are an error.
Result<std::vector<SweepCell>> ExpandMatrix(const SweepAxes& axes,
                                            const CellFilter& filter,
                                            ExpandStats* stats = nullptr);

/// Knobs shared by every cell of one matrix run.
struct SweepRunOptions {
  double scale = 1.0;      // dataset + budget scale, in (0, 1]
  uint64_t seed = 2017;    // dataset/workload seed; TI seed is fixed at 42
  std::string data_dir;    // DatasetCatalog data dir ("" = $ISA_DATA_DIR)
  uint32_t num_advertisers = 4;
  double epsilon = 0.3;
  uint64_t theta_cap = 30'000;
  uint32_t csrm_window = 2'000;  // 0 = full window
  /// Print one progress line per cell to stderr.
  bool verbose = false;
};

/// What one executed cell reports (the JSON row).
struct CellOutcome {
  SweepCell cell;
  // Instance fingerprint (bit-exact for synthetic fallbacks at a fixed
  // scale/seed; provenance is annotate-only for the checker).
  std::string source;
  uint32_t nodes = 0;
  uint64_t arcs = 0;
  uint32_t topics = 0;
  double effective_budget = 0.0;        // budget × scale, per advertiser
  uint64_t memory_budget_bytes = 0;     // resolved from memory_fraction
  // Result fields (bit-exact class).
  double revenue = 0.0;
  double seeding_cost = 0.0;
  uint64_t seeds = 0;
  uint64_t theta = 0;
  // Memory/IO observability (annotate class).
  uint64_t rr_bytes = 0;
  uint64_t spilled_bytes = 0;
  // Tolerance class.
  double seconds = 0.0;
  /// Bitwise match with the cell's group base (true for the base itself).
  bool determinism_ok = true;
};

struct MatrixReport {
  std::vector<CellOutcome> outcomes;
  ExpandStats stats;
  bool determinism_ok = true;  // AND over all cells
  size_t probe_runs = 0;       // hidden unbudgeted anchors (filtered bases)
};

/// Runs every cell. Errors from dataset loading or the TI driver, and a
/// budgeted cell that spilled nothing, abort the whole matrix (a partial
/// capture must not masquerade as a full one).
Result<MatrixReport> RunMatrix(const std::vector<SweepCell>& cells,
                               const SweepRunOptions& options);

/// Serializes the report to the BENCH_matrix.json document (schema in
/// docs/BENCHMARKS.md; `axes_json` is the pre-serialized axes object the
/// driver built, echoed for self-description).
std::string MatrixReportToJson(const MatrixReport& report,
                               const SweepRunOptions& options,
                               const std::string& axes_json);

}  // namespace isa::bench

#endif  // ISA_BENCH_SWEEP_MATRIX_H_
