// θ-growth regimes: does the Eq. 8 schedule actually grow the sample?
//
// The paper's Algorithm 2 grows each advertiser's RR sample whenever the
// Eq. 10 latent-size revision pushes θ_j = L(s̃_j, ε) (Eq. 8) past the sets
// already adopted. Before the schedule fix (one KPT pilot per store, fixed
// OPT lower bound, monotone ThetaSchedule — see rrset/sample_sizer.h) the
// growth machinery only engaged in artificially high-influence fixtures;
// this bench sweeps three influence regimes and records the growth
// observability counters so the perf trajectory finally shows θ-growth:
//
//   weighted-cascade — the paper's default regime (THE GATE: growth events
//                      must be > 0 here, or the bench exits non-zero);
//   uniform p=0.02   — low influence (pilot typically non-converged, weak
//                      KPT, large θ, cap saturation expected);
//   uniform p=0.30   — high influence (pilot converges, small θ(1), cheap
//                      repeated growth).
//
// Each regime runs TI-CSRM once; rows land in BENCH_growth.json (see
// bench_util.h).

#include <cstdio>

#include "bench/bench_util.h"
#include "graph/generators.h"
#include "topic/tic_model.h"

namespace {

std::vector<std::string> g_rows;

struct Regime {
  const char* name;
  bool weighted_cascade;
  double uniform_p;  // ignored when weighted_cascade
};

isa::core::RmInstance MakeInstance(const isa::graph::Graph& g,
                                   const isa::topic::TopicEdgeProbabilities&
                                       topics) {
  std::vector<isa::core::AdvertiserSpec> ads(2);
  ads[0].cpe = 0.3;
  ads[0].budget = 25.0;
  ads[1].cpe = 0.2;
  ads[1].budget = 18.0;
  for (auto& ad : ads) {
    ad.gamma = isa::topic::TopicDistribution::Uniform(1);
  }
  std::vector<std::vector<double>> incentives(
      2, std::vector<double>(g.num_nodes(), 1.0));
  return isa::bench::MustValue(
      isa::core::RmInstance::Create(g, topics, std::move(ads),
                                    std::move(incentives)),
      "RmInstance");
}

// Runs one regime; returns the run's total growth adoptions.
uint64_t RunCell(const isa::core::RmInstance& inst, const char* regime) {
  isa::core::TiOptions opt;
  opt.epsilon = 0.5;
  opt.theta_cap = 600'000;
  opt.seed = 42;
  isa::Stopwatch watch;
  auto res = isa::core::RunTiCsrm(inst, opt);
  isa::bench::Check(res.status(), regime);
  const double seconds = watch.ElapsedSeconds();
  const isa::core::TiResult& r = res.value();

  uint64_t idle_revisions = 0, cap_hits = 0, pilots_converged = 0;
  for (const auto& st : r.ad_stats) {
    idle_revisions += st.idle_growth_revisions;
    cap_hits += st.theta_cap_hits;
    pilots_converged += st.pilot_converged ? 1 : 0;
  }
  std::printf("%-18s  %8.3f  %6llu  %9.1f  %9llu  %7llu  %7u  %5u  "
              "%8llu  %8llu  %7llu\n",
              regime, seconds,
              (unsigned long long)r.total_seeds, r.total_revenue,
              (unsigned long long)r.total_theta,
              (unsigned long long)r.total_growth_events,
              r.ads_growth_engaged, r.ads_growth_idle,
              (unsigned long long)idle_revisions,
              (unsigned long long)cap_hits,
              (unsigned long long)pilots_converged);
  std::fflush(stdout);
  g_rows.push_back(isa::bench::JsonObject()
                       .Add("regime", regime)
                       .Add("seconds", seconds)
                       .Add("seeds", r.total_seeds)
                       .Add("revenue", r.total_revenue)
                       .Add("total_theta", r.total_theta)
                       .Add("growth_events", r.total_growth_events)
                       .Add("ads_growth_engaged", r.ads_growth_engaged)
                       .Add("ads_growth_idle", r.ads_growth_idle)
                       .Add("idle_revisions", idle_revisions)
                       .Add("theta_cap_hits", cap_hits)
                       .Add("pilots_converged", pilots_converged)
                       .str());
  return r.total_growth_events;
}

}  // namespace

int main() {
  const double scale = isa::bench::EffectiveScale(1.0);
  const auto n = static_cast<isa::graph::NodeId>(
      std::max(100.0, 400 * scale));
  auto g = isa::bench::MustValue(
      isa::graph::GenerateBarabasiAlbert(
          {.num_nodes = n, .edges_per_node = 3, .seed = 7}),
      "graph");

  std::printf("=== θ-growth regimes (TI-CSRM, BA n=%u, ε=0.5) ===\n\n", n);
  std::printf("%-18s  %8s  %6s  %9s  %9s  %7s  %7s  %5s  %8s  %8s  "
              "%7s\n",
              "regime", "seconds", "seeds", "revenue", "theta",
              "growths", "engaged", "idle", "idle-rev", "cap-hits",
              "pilots");

  const Regime regimes[] = {
      {"weighted-cascade", true, 0.0},
      {"uniform-p0.02", false, 0.02},
      {"uniform-p0.30", false, 0.30},
  };

  bool default_regime_grows = true;
  for (const Regime& regime : regimes) {
    auto topics =
        regime.weighted_cascade
            ? isa::bench::MustValue(isa::topic::MakeWeightedCascade(g, 1),
                                    "wc")
            : isa::bench::MustValue(
                  isa::topic::MakeUniform(g, 1, regime.uniform_p), "uniform");
    auto inst = MakeInstance(g, topics);
    const uint64_t growths = RunCell(inst, regime.name);
    if (regime.weighted_cascade && growths == 0) default_regime_grows = false;
  }

  isa::bench::WriteBenchJson(
      "BENCH_growth.json",
      isa::bench::JsonObject()
          .Add("bench", "growth_regimes")
          .Add("scale", scale)
          .Add("default_regime_grows", default_regime_grows)
          .AddRaw("rows", isa::bench::JsonArray(g_rows))
          .str());

  if (!default_regime_grows) {
    std::fprintf(stderr,
                 "[bench] θ-growth NEVER ENGAGED in the default-influence "
                 "regime — the Eq. 8 schedule is broken again\n");
    return 1;
  }
  return 0;
}
