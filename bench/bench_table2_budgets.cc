// Table 2: advertiser budgets and cost-per-engagement values.
//
// Paper (h = 10): FLIXSTER budgets mean 10.1K / max 20K / min 6K,
// EPINIONS mean 8.5K / max 12K / min 6K; CPEs mean 1.5 / max 2 / min 1.
// This bench draws the same workload our quality experiments use and
// reports the realized summary statistics (budgets scale with the graph).

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_writer.h"

int main() {
  const double scale = isa::bench::EffectiveScale(1.0);
  std::printf("=== Table 2: advertiser budgets and CPEs (h = 10, scale "
              "%.2f) ===\n\n",
              scale);

  isa::TableWriter table({"dataset", "budget mean", "budget max",
                          "budget min", "cpe mean", "cpe max", "cpe min"});
  for (const char* name : {"flixster", "soc-epinions1"}) {
    auto ds = isa::bench::LoadDataset(name, scale);
    auto opt = isa::bench::QualityWorkload(name, scale);
    auto ads = isa::bench::MustValue(isa::eval::MakeAdvertisers(*ds, opt),
                                     "MakeAdvertisers");
    double bsum = 0, bmax = 0, bmin = 1e18, csum = 0, cmax = 0, cmin = 1e18;
    for (const auto& ad : ads) {
      bsum += ad.budget;
      bmax = std::max(bmax, ad.budget);
      bmin = std::min(bmin, ad.budget);
      csum += ad.cpe;
      cmax = std::max(cmax, ad.cpe);
      cmin = std::min(cmin, ad.cpe);
    }
    table.AddCell(ds->name);
    table.AddCell(bsum / ads.size(), 1);
    table.AddCell(bmax, 1);
    table.AddCell(bmin, 1);
    table.AddCell(csum / ads.size(), 2);
    table.AddCell(cmax, 2);
    table.AddCell(cmin, 2);
    isa::bench::Check(table.EndRow(), "table row");
  }
  table.Print(std::cout);
  std::printf("paper reference: FLIXSTER 10.1K/20K/6K, EPINIONS "
              "8.5K/12K/6K; CPE 1.5/2/1 (both)\n");
  return 0;
}
