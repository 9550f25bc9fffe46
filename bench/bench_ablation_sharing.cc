// Ablation: shared RR samples for pure-competition advertisers.
//
// The paper leaves open "whether TI-CSRM can be made more memory efficient"
// (§7, future work (i)). Our extension shares one physical RR sample among
// advertisers whose Eq. 1 probabilities coincide — exactly the EPINIONS /
// DBLP / LIVEJOURNAL setting where every ad uses the same weighted-cascade
// probabilities. This bench quantifies the memory and runtime effect as h
// grows, and confirms revenue is unaffected (same estimator distribution).

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_writer.h"

int main() {
  const double scale = isa::bench::EffectiveScale(0.2);
  std::printf("=== Ablation: shared RR samples (EPINIONS*, pure "
              "competition, scale %.2f) ===\n\n",
              scale);

  isa::TableWriter table({"h", "mode", "RR memory", "memory ratio",
                          "seconds", "revenue", "seeds"});
  for (uint32_t h : {2u, 5u, 10u, 20u}) {
    auto ds = isa::bench::LoadDataset("soc-epinions1", scale);
    isa::eval::WorkloadOptions opt;
    opt.num_advertisers = h;
    opt.budget_min = opt.budget_max = 1'000 * scale;
    opt.cpe_min = opt.cpe_max = 1.0;
    opt.incentive_model = isa::core::IncentiveModel::kLinear;
    opt.alpha = 0.2;
    opt.spread_source = isa::eval::SpreadSource::kOutDegreeProxy;
    auto setup = isa::bench::MustValue(
        isa::eval::BuildExperiment(std::move(ds), opt), "BuildExperiment");

    uint64_t solo_bytes = 0;
    for (bool share : {false, true}) {
      auto ti = isa::bench::QualityTiOptions();
      ti.theta_cap = 100'000;
      ti.share_samples = share;
      isa::Stopwatch watch;
      auto res = isa::core::RunTiCsrm(*setup.instance, ti);
      isa::bench::Check(res.status(), "TI-CSRM");
      if (!share) solo_bytes = res.value().total_rr_memory_bytes;
      table.AddCell(uint64_t{h});
      table.AddCell(std::string(share ? "shared store" : "per-ad stores"));
      table.AddCell(isa::HumanBytes(res.value().total_rr_memory_bytes));
      table.AddCell(static_cast<double>(res.value().total_rr_memory_bytes) /
                        std::max<uint64_t>(1, solo_bytes),
                    2);
      table.AddCell(watch.ElapsedSeconds(), 2);
      table.AddCell(res.value().total_revenue, 1);
      table.AddCell(res.value().total_seeds);
      isa::bench::Check(table.EndRow(), "row");
    }
    std::fprintf(stderr, "  [h=%u] done\n", h);
  }
  table.Print(std::cout);
  return 0;
}
