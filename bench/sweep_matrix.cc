#include "bench/sweep_matrix.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "eval/workload.h"

namespace isa::bench {

namespace {

std::string FormatG(double v) { return StrFormat("%g", v); }

// How each axis renders inside cell ids and filter values — one function
// so "--only budget=1500" and the id fragment "b1500" can never drift.
std::string RenderAxis(const std::string& key, const SweepCell& cell) {
  if (key == "dataset") return cell.dataset;
  if (key == "regime") return graph::WeightingRegimeName(cell.regime);
  if (key == "model") return DiffusionModelName(cell.model);
  if (key == "rule") return SweepRuleName(cell.rule);
  if (key == "budget") return FormatG(cell.budget);
  if (key == "mem") return FormatG(cell.memory_fraction);
  if (key == "threads") return std::to_string(cell.num_threads);
  return {};
}

constexpr const char* kFilterKeys[] = {"dataset", "regime", "model",
                                       "rule",    "budget", "mem",
                                       "threads"};

bool KnownFilterKey(std::string_view key) {
  for (const char* k : kFilterKeys) {
    if (key == k) return true;
  }
  return false;
}

// Linear Threshold interprets arc values as LT weights, which requires
// Σ_{u→v} w ≤ 1 at every v. Weighted-cascade sums to exactly 1 and
// topic-mix draws each weight below 1/indeg(v); uniform-IC (constant p)
// breaks the bound on any node with indeg > 1/p.
bool ValidCombination(graph::WeightingRegime regime,
                      rrset::DiffusionModel model) {
  return model != rrset::DiffusionModel::kLinearThreshold ||
         regime != graph::WeightingRegime::kUniformIc;
}

// The fig5 e2e comparator: the full documented determinism invariant,
// including the per-ad doubles bitwise.
bool SameResult(const core::TiResult& a, const core::TiResult& b) {
  bool same = a.allocation.seed_sets == b.allocation.seed_sets &&
              a.total_revenue == b.total_revenue &&
              a.total_seeding_cost == b.total_seeding_cost &&
              a.total_theta == b.total_theta &&
              a.ad_stats.size() == b.ad_stats.size();
  for (size_t j = 0; same && j < a.ad_stats.size(); ++j) {
    const auto& x = a.ad_stats[j];
    const auto& y = b.ad_stats[j];
    same = x.theta == y.theta && x.revenue == y.revenue &&
           x.payment == y.payment && x.seeding_cost == y.seeding_cost &&
           x.latent_seed_size == y.latent_seed_size;
  }
  return same;
}

}  // namespace

const char* SweepRuleName(SweepRule rule) {
  switch (rule) {
    case SweepRule::kCarm:
      return "carm";
    case SweepRule::kCsrm:
      return "csrm";
  }
  return "unknown";
}

Result<SweepRule> ParseSweepRule(std::string_view name) {
  if (name == "carm") return SweepRule::kCarm;
  if (name == "csrm") return SweepRule::kCsrm;
  return Status::InvalidArgument(
      StrFormat("unknown rule: %.*s (expected carm | csrm)",
                static_cast<int>(name.size()), name.data()));
}

const char* DiffusionModelName(rrset::DiffusionModel model) {
  switch (model) {
    case rrset::DiffusionModel::kIndependentCascade:
      return "ic";
    case rrset::DiffusionModel::kLinearThreshold:
      return "lt";
  }
  return "unknown";
}

Result<rrset::DiffusionModel> ParseDiffusionModel(std::string_view name) {
  if (name == "ic") return rrset::DiffusionModel::kIndependentCascade;
  if (name == "lt") return rrset::DiffusionModel::kLinearThreshold;
  return Status::InvalidArgument(
      StrFormat("unknown diffusion model: %.*s (expected ic | lt)",
                static_cast<int>(name.size()), name.data()));
}

Result<CellFilter> CellFilter::Parse(std::string_view spec) {
  CellFilter filter;
  if (Trim(spec).empty()) return filter;
  for (std::string_view part : Split(spec, ',')) {
    part = Trim(part);
    if (part.empty()) continue;
    const size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("filter term '%.*s' is not key=value",
                    static_cast<int>(part.size()), part.data()));
    }
    const std::string key{Trim(part.substr(0, eq))};
    const std::string value{Trim(part.substr(eq + 1))};
    if (!KnownFilterKey(key)) {
      return Status::InvalidArgument(StrFormat(
          "unknown filter key '%s' (expected dataset | regime | model | "
          "rule | budget | mem | threads)",
          key.c_str()));
    }
    if (value.empty()) {
      return Status::InvalidArgument("empty filter value for " + key);
    }
    auto* entry = [&]() -> std::pair<std::string, std::vector<std::string>>* {
      for (auto& c : filter.constraints_) {
        if (c.first == key) return &c;
      }
      filter.constraints_.emplace_back(key, std::vector<std::string>{});
      return &filter.constraints_.back();
    }();
    entry->second.push_back(value);
  }
  return filter;
}

bool CellFilter::Matches(const SweepCell& cell) const {
  for (const auto& [key, values] : constraints_) {
    const std::string rendered = RenderAxis(key, cell);
    bool any = false;
    for (const std::string& v : values) any = any || v == rendered;
    if (!any) return false;
  }
  return true;
}

Result<std::vector<SweepCell>> ExpandMatrix(const SweepAxes& axes,
                                            const CellFilter& filter,
                                            ExpandStats* stats) {
  struct AxisCheck {
    const char* name;
    bool empty;
  };
  const AxisCheck checks[] = {
      {"datasets", axes.datasets.empty()},
      {"regimes", axes.regimes.empty()},
      {"models", axes.models.empty()},
      {"rules", axes.rules.empty()},
      {"budgets", axes.budgets.empty()},
      {"memory_fractions", axes.memory_fractions.empty()},
      {"threads", axes.threads.empty()},
  };
  for (const AxisCheck& c : checks) {
    if (c.empty) {
      return Status::InvalidArgument(
          StrFormat("sweep axis '%s' is empty", c.name));
    }
  }
  for (double f : axes.memory_fractions) {
    if (f < 0.0 || f > 1.0) {
      return Status::InvalidArgument("memory fraction must be in [0, 1]");
    }
  }

  ExpandStats local;
  ExpandStats& st = stats != nullptr ? *stats : local;
  st = ExpandStats{};
  std::vector<SweepCell> cells;
  for (const std::string& dataset : axes.datasets) {
    for (graph::WeightingRegime regime : axes.regimes) {
      for (rrset::DiffusionModel model : axes.models) {
        for (SweepRule rule : axes.rules) {
          for (double budget : axes.budgets) {
            // Variant axes: memory fraction outermost so the unbudgeted
            // run leads its group (fraction anchor + determinism base).
            for (double mem : axes.memory_fractions) {
              for (uint32_t threads : axes.threads) {
                ++st.total_combinations;
                if (!ValidCombination(regime, model)) {
                  ++st.skipped_invalid;
                  continue;
                }
                SweepCell cell;
                cell.dataset = dataset;
                cell.regime = regime;
                cell.model = model;
                cell.rule = rule;
                cell.budget = budget;
                cell.memory_fraction = mem;
                cell.num_threads = threads;
                cell.group = StrFormat(
                    "%s/%s/%s/%s/b%s", dataset.c_str(),
                    graph::WeightingRegimeName(regime),
                    DiffusionModelName(model), SweepRuleName(rule),
                    FormatG(budget).c_str());
                cell.id = StrFormat("%s/m%s/t%u", cell.group.c_str(),
                                    FormatG(mem).c_str(), threads);
                if (!filter.Matches(cell)) {
                  ++st.filtered_out;
                  continue;
                }
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  st.cells = cells.size();
  return cells;
}

namespace {

// Per-(dataset, regime) materialization shared across that group's cells.
struct DatasetEntry {
  std::unique_ptr<eval::Dataset> dataset;
  std::string source;
};

// Per-(dataset, regime, budget) instance shared across model/rule/variant
// cells (the instance depends on neither the diffusion model nor the TI
// rule — both live in TiOptions).
struct InstanceEntry {
  core::RmInstance instance;
};

Result<DatasetEntry*> GetDataset(
    std::map<std::string, DatasetEntry>& cache, const SweepCell& cell,
    const SweepRunOptions& options) {
  const std::string key =
      cell.dataset + "/" + graph::WeightingRegimeName(cell.regime);
  auto it = cache.find(key);
  if (it != cache.end()) return &it->second;

  graph::DatasetCatalog::Options copt;
  copt.data_dir = options.data_dir;
  copt.scale = options.scale;
  copt.seed = options.seed;
  auto loaded = graph::DatasetCatalog::Load(cell.dataset, cell.regime, copt);
  if (!loaded.ok()) return loaded.status();
  DatasetEntry entry;
  entry.source = loaded.value().source;
  auto ds = eval::MakeDataset(std::move(loaded));
  if (!ds.ok()) return ds.status();
  entry.dataset = std::move(ds).value();
  auto [pos, inserted] = cache.emplace(key, std::move(entry));
  (void)inserted;
  return &pos->second;
}

Result<InstanceEntry*> GetInstance(
    std::map<std::string, InstanceEntry>& cache, const DatasetEntry& de,
    const SweepCell& cell, double effective_budget,
    const SweepRunOptions& options) {
  const std::string key =
      StrFormat("%s/%s/b%s", cell.dataset.c_str(),
                graph::WeightingRegimeName(cell.regime),
                FormatG(cell.budget).c_str());
  auto it = cache.find(key);
  if (it != cache.end()) return &it->second;

  const eval::Dataset& ds = *de.dataset;
  eval::WorkloadOptions wopt;
  wopt.num_advertisers = options.num_advertisers;
  wopt.budget_min = wopt.budget_max = effective_budget;
  wopt.cpe_min = wopt.cpe_max = 1.0;
  wopt.incentive_model = core::IncentiveModel::kLinear;
  wopt.alpha = 0.2;
  wopt.spread_source = eval::SpreadSource::kOutDegreeProxy;
  wopt.seed = options.seed;
  auto ads = eval::MakeAdvertisers(ds, wopt);
  if (!ads.ok()) return ads.status();
  auto spreads = eval::ComputeSingletonSpreads(ds, ads.value(), wopt);
  if (!spreads.ok()) return spreads.status();
  std::vector<std::vector<double>> incentives;
  for (const auto& s : spreads.value()) {
    auto inc = core::ComputeIncentives(wopt.incentive_model, wopt.alpha, s);
    if (!inc.ok()) return inc.status();
    incentives.push_back(std::move(inc).value());
  }
  auto inst = core::RmInstance::Create(ds.graph, ds.topics, ads.value(),
                                       std::move(incentives));
  if (!inst.ok()) return inst.status();
  auto [pos, inserted] =
      cache.emplace(key, InstanceEntry{std::move(inst).value()});
  (void)inserted;
  return &pos->second;
}

core::TiOptions CellTiOptions(const SweepCell& cell, uint64_t budget_bytes,
                              const SweepRunOptions& options) {
  core::TiOptions opt;
  opt.epsilon = options.epsilon;
  opt.theta_cap = options.theta_cap;
  opt.seed = 42;  // fixed: the determinism groups compare across variants
  opt.propagation = cell.model;
  switch (cell.rule) {
    case SweepRule::kCarm:
      opt.candidate_rule = core::CandidateRule::kCoverage;
      opt.selection_rule = core::SelectionRule::kMaxMarginalRevenue;
      opt.window = 0;
      break;
    case SweepRule::kCsrm:
      opt.candidate_rule = core::CandidateRule::kCoverageCostRatio;
      opt.selection_rule = core::SelectionRule::kMaxRate;
      opt.window = options.csrm_window;
      break;
  }
  opt.num_threads = cell.num_threads;
  opt.rr_memory_budget_bytes = budget_bytes;
  return opt;
}

// The per-store anchor memory fractions scale: the largest per-ad
// footprint of an unbudgeted run (each store is charged to the first ad
// using it, so this is about the biggest store plus one view) — the
// bench_table3 convention. Anchoring on the all-stores total instead would
// hand each store a budget several times its own size.
uint64_t PerStoreBytes(const core::TiResult& r) {
  uint64_t bytes = 0;
  for (const core::TiAdStats& st : r.ad_stats) {
    bytes = std::max(bytes, st.rr_memory_bytes);
  }
  return bytes;
}

// Group state threaded through a matrix run: the determinism base result
// and the unbudgeted per-store byte anchor for memory fractions.
struct GroupState {
  bool have_base = false;
  core::TiResult base;
  uint64_t unbudgeted_store_bytes = 0;
};

}  // namespace

Result<MatrixReport> RunMatrix(const std::vector<SweepCell>& cells,
                               const SweepRunOptions& options) {
  if (options.scale <= 0.0 || options.scale > 1.0) {
    return Status::InvalidArgument("sweep scale must be in (0, 1]");
  }
  MatrixReport report;
  std::map<std::string, DatasetEntry> datasets;
  std::map<std::string, InstanceEntry> instances;
  std::map<std::string, GroupState> groups;

  for (const SweepCell& cell : cells) {
    const double effective_budget = cell.budget * options.scale;
    auto de = GetDataset(datasets, cell, options);
    if (!de.ok()) return de.status();
    auto ie = GetInstance(instances, *de.value(), cell, effective_budget,
                          options);
    if (!ie.ok()) return ie.status();
    const core::RmInstance& inst = ie.value()->instance;
    GroupState& group = groups[cell.group];

    // Memory fractions are relative to the group's unbudgeted per-store
    // footprint.
    // If filtering removed the unbudgeted cell, run a hidden probe to
    // re-establish the anchor (it doubles as the determinism base).
    if (cell.memory_fraction > 0.0 && !group.have_base) {
      SweepCell probe = cell;
      probe.memory_fraction = 0.0;
      probe.num_threads = 1;
      auto res = core::RunTiGreedy(inst, CellTiOptions(probe, 0, options));
      if (!res.ok()) return res.status();
      group.base = std::move(res).value();
      group.unbudgeted_store_bytes = PerStoreBytes(group.base);
      group.have_base = true;
      ++report.probe_runs;
      if (options.verbose) {
        std::fprintf(stderr, "[sweep] probe (unbudgeted anchor) for %s\n",
                     cell.group.c_str());
      }
    }
    const uint64_t budget_bytes =
        cell.memory_fraction > 0.0
            ? static_cast<uint64_t>(
                  static_cast<double>(group.unbudgeted_store_bytes) *
                  cell.memory_fraction)
            : 0;

    Stopwatch watch;
    auto res = core::RunTiGreedy(inst, CellTiOptions(cell, budget_bytes,
                                                     options));
    if (!res.ok()) {
      return Status::Internal(cell.id + ": " + res.status().ToString());
    }
    const core::TiResult& r = res.value();
    // A budgeted cell that spilled nothing never exercised the cold tier,
    // so its determinism check would prove nothing about it.
    if (cell.memory_fraction > 0.0 && r.total_spilled_bytes == 0) {
      return Status::Internal(
          cell.id + ": memory budget " + std::to_string(budget_bytes) +
          " bytes per store spilled nothing");
    }

    CellOutcome out;
    out.cell = cell;
    out.source = de.value()->source;
    out.nodes = de.value()->dataset->graph.num_nodes();
    out.arcs = de.value()->dataset->graph.num_edges();
    out.topics = de.value()->dataset->num_topics;
    out.effective_budget = effective_budget;
    out.memory_budget_bytes = budget_bytes;
    out.revenue = r.total_revenue;
    out.seeding_cost = r.total_seeding_cost;
    out.seeds = r.total_seeds;
    out.theta = r.total_theta;
    out.rr_bytes = r.total_rr_memory_bytes;
    out.spilled_bytes = r.total_spilled_bytes;
    out.seconds = watch.ElapsedSeconds();
    if (!group.have_base) {
      group.base = r;
      if (cell.memory_fraction == 0.0) {
        group.unbudgeted_store_bytes = PerStoreBytes(r);
      }
      group.have_base = true;
    } else {
      out.determinism_ok = SameResult(group.base, r);
      if (!out.determinism_ok) report.determinism_ok = false;
    }
    if (options.verbose) {
      std::fprintf(stderr,
                   "[sweep] %-55s %8.3fs  revenue %.1f  seeds %llu%s\n",
                   cell.id.c_str(), out.seconds, out.revenue,
                   static_cast<unsigned long long>(out.seeds),
                   out.determinism_ok ? "" : "  DETERMINISM MISMATCH");
    }
    report.outcomes.push_back(std::move(out));
  }
  return report;
}

std::string MatrixReportToJson(const MatrixReport& report,
                               const SweepRunOptions& options,
                               const std::string& axes_json) {
  std::vector<std::string> rows;
  for (const CellOutcome& o : report.outcomes) {
    rows.push_back(
        JsonObject()
            .Add("id", o.cell.id)
            .Add("group", o.cell.group)
            .Add("dataset", o.cell.dataset)
            .Add("regime", graph::WeightingRegimeName(o.cell.regime))
            .Add("model", DiffusionModelName(o.cell.model))
            .Add("rule", SweepRuleName(o.cell.rule))
            .Add("budget", o.cell.budget)
            .Add("memory_fraction", o.cell.memory_fraction)
            .Add("threads", o.cell.num_threads)
            .Add("source", o.source)
            .Add("nodes", o.nodes)
            .Add("arcs", o.arcs)
            .Add("topics", o.topics)
            .Add("effective_budget", o.effective_budget)
            .Add("memory_budget_bytes", o.memory_budget_bytes)
            .Add("revenue", o.revenue)
            .Add("seeding_cost", o.seeding_cost)
            .Add("seeds", o.seeds)
            .Add("theta", o.theta)
            .Add("rr_bytes", o.rr_bytes)
            .Add("spilled_bytes", o.spilled_bytes)
            .Add("seconds", o.seconds)
            .Add("determinism_ok", o.determinism_ok)
            .str());
  }
  const std::string expand =
      JsonObject()
          .Add("total_combinations",
               static_cast<uint64_t>(report.stats.total_combinations))
          .Add("skipped_invalid",
               static_cast<uint64_t>(report.stats.skipped_invalid))
          .Add("filtered_out",
               static_cast<uint64_t>(report.stats.filtered_out))
          .Add("cells", static_cast<uint64_t>(report.stats.cells))
          .str();
  return JsonObject()
      .Add("bench", "sweep_matrix")
      .Add("schema_version", 1)
      .Add("scale", options.scale)
      .Add("seed", options.seed)
      .Add("advertisers", options.num_advertisers)
      .Add("epsilon", options.epsilon)
      .Add("theta_cap", options.theta_cap)
      .Add("csrm_window", options.csrm_window)
      .Add("hardware_concurrency",
           std::max(1u, std::thread::hardware_concurrency()))
      .Add("gzip_supported", graph::GzipSupported())
      .AddRaw("axes", axes_json)
      .AddRaw("expand", expand)
      .Add("probe_runs", static_cast<uint64_t>(report.probe_runs))
      .Add("determinism_ok", report.determinism_ok)
      .AddRaw("cells", JsonArray(rows))
      .str();
}

}  // namespace isa::bench
