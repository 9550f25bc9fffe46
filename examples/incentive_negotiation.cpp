// Incentive negotiation: what schedule should the host offer influencers?
//
// The host controls the incentive function f and the scale α (paper §5
// studies linear / constant / sublinear / superlinear). This example sweeps
// all four on one workload and prints the revenue / seeding-cost frontier —
// the quantitative basis for choosing a schedule. It also contrasts
// cost-agnostic and cost-sensitive seeding under each schedule.
//
// Run: ./build/examples/incentive_negotiation

#include <cstdio>
#include <iostream>

#include "common/strings.h"
#include "common/table_writer.h"
#include "core/ti_greedy.h"
#include "eval/datasets.h"
#include "eval/workload.h"
#include "graph/dataset_catalog.h"

int main() {
  isa::graph::DatasetCatalog::Options catalog;
  catalog.scale = 0.05;
  auto ds = isa::eval::MakeDataset(
                isa::graph::DatasetCatalog::Load("soc-epinions1", catalog))
                .value();
  std::printf("network: %s (%u users, %u follow arcs)\n\n",
              ds->name.c_str(), ds->graph.num_nodes(),
              ds->graph.num_edges());

  isa::eval::WorkloadOptions workload;
  workload.num_advertisers = 5;
  workload.budget_min = 300;
  workload.budget_max = 600;
  workload.spread_source = isa::eval::SpreadSource::kRrEstimate;
  workload.spread_effort = 20'000;
  auto setup =
      isa::eval::BuildExperiment(std::move(ds), workload).value();

  const struct {
    isa::core::IncentiveModel model;
    double alpha;
  } schedules[] = {
      {isa::core::IncentiveModel::kLinear, 0.3},
      {isa::core::IncentiveModel::kConstant, 0.3},
      {isa::core::IncentiveModel::kSublinear, 1.0},
      {isa::core::IncentiveModel::kSuperlinear, 0.001},
  };

  isa::TableWriter table({"schedule", "algorithm", "revenue",
                          "incentives paid", "seeds",
                          "revenue per incentive $"});
  for (const auto& sched : schedules) {
    auto status = isa::eval::RebuildInstanceWithIncentives(
        setup, sched.model, sched.alpha);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    for (bool cost_sensitive : {false, true}) {
      isa::core::TiOptions options;
      options.epsilon = 0.3;
      options.seed = 23;
      auto result =
          cost_sensitive
              ? isa::core::RunTiCsrm(*setup.instance, options).value()
              : isa::core::RunTiCarm(*setup.instance, options).value();
      table.AddCell(isa::StrFormat(
          "%s (alpha=%g)", isa::core::IncentiveModelName(sched.model),
          sched.alpha));
      table.AddCell(std::string(cost_sensitive ? "TI-CSRM" : "TI-CARM"));
      table.AddCell(result.total_revenue, 1);
      table.AddCell(result.total_seeding_cost, 1);
      table.AddCell(result.total_seeds);
      table.AddCell(result.total_seeding_cost > 0
                        ? isa::StrFormat("%.1f",
                                         result.total_revenue /
                                             result.total_seeding_cost)
                        : std::string("inf"));
      if (auto s = table.EndRow(); !s.ok()) return 1;
    }
  }
  table.Print(std::cout);
  std::printf("reading guide: under 'constant' both algorithms coincide "
              "(cost carries no signal);\nunder skewed schedules TI-CSRM "
              "buys influence where it is cheapest per engagement.\n");
  return 0;
}
