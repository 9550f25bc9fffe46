// Figure 4: revenue vs running-time trade-off of TI-CSRM's window size w
// on FLIXSTER* and EPINIONS* with linear incentives, α ∈ {0.2, 0.5}.
// Paper headline: revenue grows with w (maximum at w = n), running time
// grows much faster; w = 1 behaves like TI-CARM's candidate rule.
// Here the running time does not grow linearly with w: the window keeps
// its top-w entries under a tournament tree, so retiring a candidate costs
// O(log w) (core/advertiser_engine.h), and larger windows cost mostly the
// extra seeds they select and the larger samples those seeds need.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_writer.h"

int main() {
  const double scale = isa::bench::EffectiveScale(0.12);
  std::printf("=== Figure 4: TI-CSRM revenue vs running time across window "
              "sizes (scale %.2f) ===\n\n",
              scale);

  isa::TableWriter table({"dataset", "alpha", "window", "revenue",
                          "seconds", "seeds", "theta total"});
  const uint32_t windows[] = {1, 50, 100, 250, 500, 1000, 2500, 5000, 0};

  for (const std::string name : {"flixster", "soc-epinions1"}) {
    auto ds = isa::bench::LoadDataset(name, scale);
    auto workload = isa::bench::QualityWorkload(name, scale);
    workload.incentive_model = isa::core::IncentiveModel::kLinear;
    auto setup = isa::bench::MustValue(
        isa::eval::BuildExperiment(std::move(ds), workload),
        "BuildExperiment");
    for (double alpha : {0.2, 0.5}) {
      isa::bench::Check(
          isa::eval::RebuildInstanceWithIncentives(
              setup, isa::core::IncentiveModel::kLinear, alpha),
          "RebuildInstanceWithIncentives");
      for (uint32_t w : windows) {
        auto opt = isa::bench::QualityTiOptions();
        opt.window = w;
        isa::Stopwatch watch;
        auto res = isa::core::RunTiCsrm(*setup.instance, opt);
        isa::bench::Check(res.status(), "TI-CSRM");
        table.AddCell(name);
        table.AddCell(alpha, 1);
        table.AddCell(w == 0 ? std::string("n (full)")
                             : isa::StrFormat("%u", w));
        table.AddCell(res.value().total_revenue, 1);
        table.AddCell(watch.ElapsedSeconds(), 3);
        table.AddCell(res.value().total_seeds);
        table.AddCell(res.value().total_theta);
        isa::bench::Check(table.EndRow(), "row");
        std::fprintf(stderr, "  [%s alpha=%.1f w=%u] done\n", name.c_str(),
                     alpha, w);
      }
    }
  }
  table.Print(std::cout);
  return 0;
}
