// Competing brands: the paper's motivating scenario (§1–2).
//
// Two shoe brands ("running" topic) and two camera brands ("photo" topic)
// buy campaigns in the same time window. Within each topic pair the ads are
// in PURE COMPETITION — identical topic distributions, hence identical
// influence probabilities — so they fight over the same influencers, while
// the partition matroid guarantees no influencer endorses two ads
// (the "Nike and Adidas" constraint).
//
// Run: ./build/examples/competing_brands

#include <algorithm>
#include <cstdio>

#include "common/thread_pool.h"
#include "core/incentives.h"
#include "core/ti_greedy.h"
#include "graph/dataset_catalog.h"
#include "graph/generators.h"
#include "rrset/singleton_estimator.h"
#include "topic/tic_model.h"

int main() {
  // A 5,000-user network; TIC with 2 latent topics (running, photo) and
  // heterogeneous per-topic influence.
  auto graph = isa::graph::GenerateRmat([] {
                 isa::graph::RmatOptions opt;
                 opt.scale = 13;  // 8192 nodes
                 opt.num_edges = 60'000;
                 opt.seed = 3;
                 return opt;
               }())
                   .value();
  auto topics = isa::topic::TopicEdgeProbabilities::Create(
                    graph, isa::graph::MakeRegimeWeights(
                               graph, isa::graph::WeightingRegime::kTopicMix,
                               2, 0.0, 11)
                               .value())
                    .value();

  const char* names[4] = {"Runfast shoes", "Stride shoes", "Lumix cameras",
                          "Prisma cameras"};
  // Ads 0/1 concentrate on topic 0, ads 2/3 on topic 1 (0.91/0.09 split,
  // as in the paper's marketplace).
  std::vector<isa::core::AdvertiserSpec> ads(4);
  std::vector<std::vector<double>> incentives;
  isa::ThreadPool pool;  // hardware concurrency, shared by the 4 estimates
  for (int i = 0; i < 4; ++i) {
    ads[i].cpe = 1.0 + 0.25 * i;
    ads[i].budget = 800.0;
    ads[i].gamma =
        isa::topic::TopicDistribution::Concentrated(2, i / 2, 0.91).value();
    // Incentives priced from ad-specific singleton influence (RR batch
    // estimator): a running influencer costs the shoe brands more than the
    // camera brands, and vice versa.
    auto mixed =
        isa::topic::AdProbabilities::Mix(topics, ads[i].gamma).value();
    auto spreads = isa::rrset::EstimateAllSingletonSpreads(
                       graph, mixed.probs(), 30'000, 100 + i, &pool)
                       .value();
    incentives.push_back(isa::core::ComputeIncentives(
                             isa::core::IncentiveModel::kLinear, 0.3,
                             spreads)
                             .value());
  }

  auto instance = isa::core::RmInstance::Create(graph, topics, ads,
                                                std::move(incentives))
                      .value();
  isa::core::TiOptions options;
  options.epsilon = 0.3;
  options.seed = 17;
  auto result = isa::core::RunTiCsrm(instance, options).value();

  std::printf("host revenue across the 4 campaigns: $%.2f\n\n",
              result.total_revenue);
  for (int i = 0; i < 4; ++i) {
    const auto& st = result.ad_stats[i];
    std::printf("%-15s topic=%s  seeds=%-4llu revenue=$%-9.2f "
                "incentives=$%-8.2f payment=$%.2f / $%.2f\n",
                names[i], i < 2 ? "running" : "photo",
                (unsigned long long)st.seeds, st.revenue, st.seeding_cost,
                st.payment, ads[i].budget);
  }

  // Verify the matroid constraint: no influencer endorses two brands.
  std::vector<uint8_t> seen(graph.num_nodes(), 0);
  for (const auto& seeds : result.allocation.seed_sets) {
    for (auto u : seeds) {
      if (seen[u]) {
        std::printf("\nERROR: influencer %u endorses two ads!\n", u);
        return 1;
      }
      seen[u] = 1;
    }
  }
  std::printf("\nno influencer endorses more than one ad "
              "(partition matroid holds)\n");

  // Competition check: the two shoe brands drew seeds from the same
  // (running-topic) influencer pool.
  auto overlap_potential = [&](int a, int b) {
    return instance.ad(a).gamma.CosineSimilarity(instance.ad(b).gamma);
  };
  std::printf("topic similarity shoes-vs-shoes: %.2f, shoes-vs-cameras: "
              "%.2f\n",
              overlap_potential(0, 1), overlap_potential(0, 2));
  return 0;
}
