// Figures 2 and 3: total revenue and total seeding cost as functions of α
// on FLIXSTER* and EPINIONS*, for linear / constant / sublinear /
// superlinear incentive models and the four algorithms. The sweep runs
// once and prints both tables. Paper headlines: TI-CSRM achieves the
// highest revenue at every point, with a margin that grows with α, and
// under constant incentives TI-CARM and TI-CSRM coincide (Figure 2);
// TI-CSRM consistently pays the least in seed incentives, by orders of
// magnitude under the superlinear model (Figure 3).

#include <cstdio>

#include "bench/quality_sweep.h"

int main() {
  const double scale = isa::bench::EffectiveScale(0.15);
  auto points = isa::bench::RunQualitySweep(scale);
  std::printf("=== Figure 2: total revenue vs alpha (scale %.2f) ===\n\n",
              scale);
  isa::bench::PrintSweep(points, /*seeding_cost=*/false);
  std::printf("\n=== Figure 3: total seeding cost vs alpha (scale %.2f) "
              "===\n\n",
              scale);
  isa::bench::PrintSweep(points, /*seeding_cost=*/true);
  return 0;
}
