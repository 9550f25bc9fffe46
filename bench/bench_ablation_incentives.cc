// Ablation: how the singleton-spread source used for incentive assignment
// (DESIGN.md substitution 3) affects the final allocation.
//
// The paper computes σ_i({u}) by 5K-run Monte-Carlo on the quality datasets
// and falls back to the out-degree proxy on DBLP / LIVEJOURNAL. We compare
// three sources — RR-set batch estimate, out-degree proxy, and per-node
// Monte-Carlo — on the same instance and report the revenue / seeding cost
// TI-CSRM achieves under each.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_writer.h"

int main() {
  const double scale = isa::bench::EffectiveScale(0.05);
  std::printf("=== Ablation: incentive spread source (EPINIONS*, scale "
              "%.2f) ===\n\n",
              scale);

  isa::TableWriter table({"spread source", "algorithm", "revenue",
                          "seeding cost", "seeds"});
  const struct {
    isa::eval::SpreadSource source;
    const char* name;
    uint32_t effort;
  } sources[] = {
      {isa::eval::SpreadSource::kRrEstimate, "RR estimate (50k sets)",
       50'000},
      {isa::eval::SpreadSource::kOutDegreeProxy, "out-degree proxy", 0},
      {isa::eval::SpreadSource::kMonteCarlo, "Monte-Carlo (200 runs/node)",
       200},
  };

  for (const auto& src : sources) {
    auto ds = isa::bench::LoadDataset("soc-epinions1", scale);
    auto opt = isa::bench::QualityWorkload("soc-epinions1", scale);
    opt.spread_source = src.source;
    if (src.effort > 0) opt.spread_effort = src.effort;
    opt.incentive_model = isa::core::IncentiveModel::kLinear;
    opt.alpha = 0.3;
    auto setup = isa::bench::MustValue(
        isa::eval::BuildExperiment(std::move(ds), opt), "BuildExperiment");
    for (bool cs : {false, true}) {
      auto ti = isa::bench::QualityTiOptions();
      auto res = cs ? isa::core::RunTiCsrm(*setup.instance, ti)
                    : isa::core::RunTiCarm(*setup.instance, ti);
      isa::bench::Check(res.status(), "run");
      table.AddCell(std::string(src.name));
      table.AddCell(std::string(cs ? "TI-CSRM" : "TI-CARM"));
      table.AddCell(res.value().total_revenue, 1);
      table.AddCell(res.value().total_seeding_cost, 1);
      table.AddCell(res.value().total_seeds);
      isa::bench::Check(table.EndRow(), "row");
    }
    std::fprintf(stderr, "  [%s] done\n", src.name);
  }
  table.Print(std::cout);
  return 0;
}
