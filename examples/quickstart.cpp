// Quickstart: the smallest end-to-end use of the library.
//
// A host runs one advertising campaign on a synthetic social network:
//   1. build a graph and an influence model,
//   2. describe the advertiser (budget, cost-per-engagement),
//   3. price the seed incentives from singleton influence,
//   4. run TI-CSRM to pick the seed users,
//   5. validate the allocation with an independent Monte-Carlo estimate.
//
// Run: ./build/examples/quickstart

#include <cstdio>

#include "core/incentives.h"
#include "core/spread_oracle.h"
#include "core/ti_greedy.h"
#include "diffusion/cascade.h"
#include "graph/dataset_catalog.h"
#include "graph/generators.h"
#include "topic/tic_model.h"

int main() {
  // 1. A 2,000-user social network (Barabási–Albert: heavy-tailed degrees,
  //    like real follower graphs) with weighted-cascade influence.
  auto graph_result = isa::graph::GenerateBarabasiAlbert(
      {.num_nodes = 2000, .edges_per_node = 4, .seed = 7});
  if (!graph_result.ok()) {
    std::fprintf(stderr, "graph: %s\n",
                 graph_result.status().ToString().c_str());
    return 1;
  }
  const isa::graph::Graph& graph = graph_result.value();
  auto topics = isa::topic::TopicEdgeProbabilities::Create(
                    graph, isa::graph::MakeRegimeWeights(
                               graph,
                               isa::graph::WeightingRegime::kWeightedCascade)
                               .value())
                    .value();

  // 2. One advertiser: $1.50 per engagement, $500 campaign budget.
  isa::core::AdvertiserSpec advertiser;
  advertiser.cpe = 1.5;
  advertiser.budget = 500.0;
  advertiser.gamma = isa::topic::TopicDistribution::Uniform(1);

  // 3. Seed incentives: linear in each user's influence potential
  //    (out-degree proxy; see rrset::EstimateAllSingletonSpreads for the
  //    estimator-based alternative).
  auto spreads = isa::diffusion::SingletonSpreadProxy(graph);
  auto incentives = isa::core::ComputeIncentives(
                        isa::core::IncentiveModel::kLinear, 0.25, spreads)
                        .value();

  auto instance =
      isa::core::RmInstance::Create(graph, topics, {advertiser},
                                    {std::move(incentives)})
          .value();

  // 4. Scalable cost-sensitive seed selection (TI-CSRM).
  isa::core::TiOptions options;
  options.epsilon = 0.3;
  options.seed = 42;
  auto result = isa::core::RunTiCsrm(instance, options);
  if (!result.ok()) {
    std::fprintf(stderr, "TI-CSRM: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const isa::core::TiResult& r = result.value();
  std::printf("TI-CSRM selected %llu seed users in %.2fs\n",
              (unsigned long long)r.total_seeds, r.elapsed_seconds);
  std::printf("  estimated revenue:     $%.2f\n", r.total_revenue);
  std::printf("  seed incentives paid:  $%.2f\n", r.total_seeding_cost);
  std::printf("  advertiser payment:    $%.2f (budget $%.2f)\n",
              r.ad_stats[0].payment, advertiser.budget);

  // 5. Independent validation: re-estimate the spread by Monte-Carlo.
  isa::core::McSpreadOracle oracle(instance, /*runs=*/2000, /*seed=*/9);
  auto eval = isa::core::EvaluateAllocation(instance, r.allocation, oracle);
  std::printf("Monte-Carlo check: revenue $%.2f, feasible: %s\n",
              eval.total_revenue, eval.feasible ? "yes" : "no");
  return eval.feasible ? 0 : 1;
}
