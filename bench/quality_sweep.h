// The Figure 2 / Figure 3 sweep: for each quality dataset (FLIXSTER*,
// EPINIONS*), each incentive model, and each α on the paper's grid, run all
// four algorithms and record total revenue and total seeding cost.
// bench_fig2 prints the revenue series, bench_fig3 the seeding-cost series.

#ifndef ISA_BENCH_QUALITY_SWEEP_H_
#define ISA_BENCH_QUALITY_SWEEP_H_

#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "common/table_writer.h"

namespace isa::bench {

struct SweepPoint {
  std::string dataset;
  core::IncentiveModel model;
  double alpha;
  std::vector<AlgoOutcome> outcomes;  // 4 algorithms
};

/// Cache file shared by bench_fig2 and bench_fig3: the two binaries print
/// different metrics of the SAME sweep, so whichever runs first persists
/// the results and the other reuses them.
inline std::string SweepCachePath(double scale) {
  return StrFormat("isa_quality_sweep_%.3f.csv", scale);
}

inline void SaveSweep(const std::vector<SweepPoint>& points,
                      const std::string& path) {
  std::ofstream f(path);
  if (!f) return;
  for (const SweepPoint& p : points) {
    for (const AlgoOutcome& o : p.outcomes) {
      f << p.dataset << ',' << core::IncentiveModelName(p.model) << ','
        << FormatDouble(p.alpha, 6) << ',' << o.name << ','
        << FormatDouble(o.revenue, 4) << ',' << FormatDouble(o.seeding_cost, 4)
        << ',' << o.seeds << ',' << FormatDouble(o.seconds, 4) << ','
        << o.rr_bytes << '\n';
    }
  }
}

inline bool LoadSweep(const std::string& path,
                      std::vector<SweepPoint>* points) {
  std::ifstream f(path);
  if (!f) return false;
  points->clear();
  std::string line;
  while (std::getline(f, line)) {
    auto cells = Split(line, ',');
    if (cells.size() != 9) return false;
    auto model = core::ParseIncentiveModel(std::string(cells[1]));
    auto alpha = ParseDouble(cells[2]);
    if (!model.ok() || !alpha.ok()) return false;
    if (points->empty() || points->back().dataset != cells[0] ||
        points->back().model != model.value() ||
        points->back().alpha != alpha.value()) {
      points->push_back(SweepPoint{std::string(cells[0]), model.value(),
                                   alpha.value(), {}});
    }
    AlgoOutcome o;
    o.name = std::string(cells[3]);
    o.revenue = ParseDouble(cells[4]).value_or(0);
    o.seeding_cost = ParseDouble(cells[5]).value_or(0);
    o.seeds = static_cast<uint64_t>(ParseInt(cells[6]).value_or(0));
    o.seconds = ParseDouble(cells[7]).value_or(0);
    o.rr_bytes = static_cast<uint64_t>(ParseInt(cells[8]).value_or(0));
    points->back().outcomes.push_back(std::move(o));
  }
  return !points->empty();
}

/// Runs the full sweep at the given scale (or loads the cached results a
/// sibling bench already produced). Singleton spreads are computed once per
/// dataset and reused across (model, α) points, matching how the paper
/// varies incentives on fixed spreads.
inline std::vector<SweepPoint> RunQualitySweep(double scale) {
  std::vector<SweepPoint> points;
  const std::string cache = SweepCachePath(scale);
  if (LoadSweep(cache, &points)) {
    std::fprintf(stderr, "  [loaded cached sweep from %s]\n", cache.c_str());
    return points;
  }
  for (const std::string name : {"flixster", "soc-epinions1"}) {
    auto ds = LoadDataset(name, scale);
    auto workload = QualityWorkload(name, scale);
    auto setup = MustValue(eval::BuildExperiment(std::move(ds), workload),
                           "BuildExperiment");
    for (core::IncentiveModel model : AllIncentiveModels()) {
      for (double alpha : AlphaGrid(name, model)) {
        Check(eval::RebuildInstanceWithIncentives(setup, model, alpha),
              "RebuildInstanceWithIncentives");
        SweepPoint point;
        point.dataset = name;
        point.model = model;
        point.alpha = alpha;
        auto ti = QualityTiOptions();
        ti.window = 0;  // full window, as in the paper's quality runs
        point.outcomes = RunAllFour(*setup.instance, ti);
        points.push_back(std::move(point));
        std::fprintf(stderr, "  [%s %s alpha=%g] done\n", name.c_str(),
                     core::IncentiveModelName(model), alpha);
      }
    }
  }
  SaveSweep(points, cache);
  return points;
}

/// Prints one metric ("revenue" or "seeding cost") of the sweep as a table
/// with one row per (dataset, model, α) and one column per algorithm.
inline void PrintSweep(const std::vector<SweepPoint>& points,
                       bool seeding_cost) {
  TableWriter table({"dataset", "incentives", "alpha", "PageRank-GR",
                     "PageRank-RR", "TI-CARM", "TI-CSRM",
                     "CSRM vs CARM"});
  for (const SweepPoint& p : points) {
    table.AddCell(p.dataset);
    table.AddCell(std::string(core::IncentiveModelName(p.model)));
    table.AddCell(StrFormat("%g", p.alpha));
    double carm = 0, csrm = 0;
    for (const AlgoOutcome& o : p.outcomes) {
      const double v = seeding_cost ? o.seeding_cost : o.revenue;
      table.AddCell(v, 1);
      if (o.name == "TI-CARM") carm = v;
      if (o.name == "TI-CSRM") csrm = v;
    }
    table.AddCell(carm > 0 ? StrFormat("%+.1f%%", 100.0 * (csrm - carm) /
                                                      carm)
                           : std::string("n/a"));
    Check(table.EndRow(), "sweep row");
  }
  table.Print(std::cout);
}

}  // namespace isa::bench

#endif  // ISA_BENCH_QUALITY_SWEEP_H_
