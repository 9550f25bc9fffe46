// The Figure 2 / Figure 3 sweep: for each quality dataset (FLIXSTER*,
// EPINIONS*), each incentive model, and each α on the paper's grid, run all
// four algorithms and record total revenue and total seeding cost.
// bench_fig2 runs it once and prints both series.

#ifndef ISA_BENCH_QUALITY_SWEEP_H_
#define ISA_BENCH_QUALITY_SWEEP_H_

#include <cstdio>
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

/// Runs the full sweep at the given scale. Singleton spreads are computed
/// once per dataset and reused across (model, α) points, matching how the
/// paper varies incentives on fixed spreads.
inline std::vector<SweepPoint> RunQualitySweep(double scale) {
  std::vector<SweepPoint> points;
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
