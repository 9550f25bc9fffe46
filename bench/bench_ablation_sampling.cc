// Ablation: estimation machinery behind the scalable algorithms.
//
//  (a) Monte-Carlo spread estimation error vs number of cascade runs,
//      against exact possible-world enumeration on a gadget graph.
//  (b) Eq. 8 sample sizes L(s, ε) with and without the KPT pilot — the
//      pilot's OPT_s lower bound is what makes laptop-scale θ possible.
//  (c) RR-set geometry (mean size, mean width) per dataset / probability
//      model — the driver of both runtime and Table 3 memory.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_writer.h"
#include "diffusion/cascade.h"
#include "diffusion/exact.h"
#include "graph/generators.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_sizer.h"
#include "topic/tic_model.h"

namespace {

void McErrorStudy() {
  std::printf("--- (a) Monte-Carlo spread error vs #runs (diamond gadget) "
              "---\n");
  auto g = isa::bench::MustValue(
      isa::graph::Graph::FromEdges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}),
      "gadget");
  std::vector<double> probs = {0.5, 0.5, 0.5, 0.5};
  const isa::graph::NodeId seeds[1] = {0};
  const double exact =
      isa::bench::MustValue(isa::diffusion::ExactSpread(g, probs, seeds),
                            "exact");
  isa::TableWriter table({"runs", "estimate", "abs error"});
  isa::diffusion::CascadeSimulator sim(g);
  for (uint32_t runs : {10u, 100u, 1'000u, 10'000u, 100'000u, 1'000'000u}) {
    const double est = sim.EstimateSpread(probs, seeds, runs, 99);
    table.AddCell(uint64_t{runs});
    table.AddCell(est, 4);
    table.AddCell(std::abs(est - exact), 4);
    isa::bench::Check(table.EndRow(), "row");
  }
  table.Print(std::cout);
}

void SampleSizeStudy() {
  std::printf("--- (b) Eq. 8 sample sizes: KPT pilot vs OPT_s >= s only "
              "(BA graph, n = 2000, WC) ---\n");
  auto g = isa::bench::MustValue(
      isa::graph::GenerateBarabasiAlbert(
          {.num_nodes = 2000, .edges_per_node = 3, .seed = 1}),
      "graph");
  auto topics =
      isa::bench::MustValue(isa::topic::MakeWeightedCascade(g, 1), "wc");
  isa::TableWriter table({"epsilon", "s", "theta (pilot)",
                          "theta (no pilot)", "pilot OPT_lb"});
  for (double eps : {0.1, 0.3, 0.5}) {
    isa::rrset::SampleSizerOptions with, without;
    with.epsilon = without.epsilon = eps;
    with.theta_cap = without.theta_cap = 1'000'000'000;
    without.run_kpt_pilot = false;
    isa::rrset::SampleSizer sized(g, topics.topic(0), with);
    isa::rrset::SampleSizer plain(g, topics.topic(0), without);
    for (uint64_t s : {1ull, 10ull, 100ull, 1000ull}) {
      table.AddCell(eps, 1);
      table.AddCell(s);
      table.AddCell(sized.ThetaFor(s));
      table.AddCell(plain.ThetaFor(s));
      table.AddCell(sized.OptLowerBound(), 1);
      isa::bench::Check(table.EndRow(), "row");
    }
  }
  table.Print(std::cout);
}

void RrGeometryStudy(double scale) {
  std::printf("--- (c) RR-set geometry per dataset (10k sets each) ---\n");
  isa::TableWriter table({"dataset", "mean RR size", "bytes per set",
                          "sets per second"});
  for (const char* name : {"flixster", "soc-epinions1", "com-dblp"}) {
    auto ds = isa::bench::LoadDataset(name, scale);
    auto mixed = isa::bench::MustValue(
        isa::topic::AdProbabilities::Mix(
            ds->topics, ds->num_topics > 1
                            ? isa::bench::MustValue(
                                  isa::topic::TopicDistribution::Concentrated(
                                      ds->num_topics, 0, 0.91),
                                  "gamma")
                            : isa::topic::TopicDistribution::Uniform(1)),
        "mix");
    isa::rrset::ParallelSampler sampler(
        ds->graph, mixed.probs(),
        isa::rrset::DiffusionModel::kIndependentCascade, 4,
        {.num_threads = 1});
    isa::rrset::RrCollection col(ds->graph.num_nodes());
    isa::Stopwatch watch;
    col.AddSets(sampler, 10'000, {});
    const double secs = watch.ElapsedSeconds();
    table.AddCell(ds->name);
    table.AddCell(col.MeanSetSize(), 2);
    table.AddCell(static_cast<double>(col.MemoryBytes()) / 10'000.0, 1);
    table.AddCell(10'000.0 / secs, 0);
    isa::bench::Check(table.EndRow(), "row");
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  const double scale = isa::bench::EffectiveScale(0.2);
  std::printf("=== Ablation: spread estimation & sample sizing (scale "
              "%.2f) ===\n\n",
              scale);
  McErrorStudy();
  SampleSizeStudy();
  RrGeometryStudy(scale);
  return 0;
}
