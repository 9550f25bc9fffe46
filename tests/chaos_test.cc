// Seeded chaos sweep over the failure-handling machinery. Each case arms
// one failpoint spec — by default from a fixed internal matrix; when the
// ISA_FAILPOINTS environment variable is set (the CI chaos job's rotating
// matrix) that spec is exercised instead — runs the budgeted end-to-end
// fixture, and asserts the recovery contract:
//
//   - read-side-only fault specs (spill.read / spill.resample)
//     must either complete with a TiResult whose computed fields are
//     bit-identical to the fault-free run, or fail with a clean
//     Status::ResourceExhausted (the unrecoverable double-fault case);
//   - write/alloc fault specs may deterministically change the schedule
//     (admission caps) or abort, so for them the contract is completion
//     with seeds OR a clean ResourceExhausted — never a crash, never a
//     silently different read-path result.
//
// Every trigger is a pure function of per-site hit counters, so each spec
// reproduces the same fault schedule on every run — a red chaos case
// replays exactly. The spill.* sites keep one attribution per run:
// evictions (those between the batches of a streamed first sample too)
// run in a fixed store order, and cold reads happen in the serial round
// loop. sampler.alloc and pool.alloc are hit from parallel per-store
// tasks, so only their hit count is fixed; either one firing aborts the
// run with ResourceExhausted, which replays all the same.
//
// NOTE: only this suite (and the registry/recovery suites, which arm
// their own specs) tolerate a set ISA_FAILPOINTS; the CI chaos job runs
// `ctest -R Chaos` under the env matrix for exactly that reason.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa {
namespace {

using core::RmInstance;
using core::RunTiGreedy;
using core::TiOptions;
using core::TiResult;
using graph::Graph;

struct ChaosFixture {
  Graph g;
  std::unique_ptr<RmInstance> instance;

  ChaosFixture() {
    graph::BarabasiAlbertOptions gopts;
    gopts.num_nodes = 150;
    gopts.edges_per_node = 9;
    gopts.seed = 9;
    auto graph = graph::GenerateBarabasiAlbert(gopts);
    ISA_CHECK(graph.ok());
    g = std::move(graph).value();
    auto topics = topic::MakeUniform(g, 1, 0.8);
    ISA_CHECK(topics.ok());
    std::vector<core::AdvertiserSpec> ads(3);
    ads[0].cpe = 0.2;
    ads[0].budget = 30.0;
    ads[1].cpe = 0.15;
    ads[1].budget = 25.0;
    ads[2].cpe = 0.25;
    ads[2].budget = 35.0;
    for (auto& ad : ads) ad.gamma = topic::TopicDistribution::Uniform(1);
    std::vector<std::vector<double>> incentives(
        3, std::vector<double>(g.num_nodes(), 1.0));
    auto inst = RmInstance::Create(g, topics.value(), std::move(ads),
                                   std::move(incentives));
    ISA_CHECK(inst.ok());
    instance = std::make_unique<RmInstance>(std::move(inst).value());
  }

  TiOptions Options() const {
    TiOptions options;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.theta_cap = 200'000;
    options.num_threads = 2;
    options.rr_memory_budget_bytes = 1;  // spill + rescan constantly
    return options;
  }
};

// True when every entry of `spec` targets a read-side site, i.e. one that
// must never change a computed result (recovery is bit-identical and
// failures are clean).
bool ReadSideOnly(const std::string& spec) {
  auto parsed = FailPoints::Parse(spec);
  if (!parsed.ok()) return false;
  for (const FailPoints::Spec& s : parsed.value()) {
    if (s.site != "spill.read" && s.site != "spill.resample") {
      return false;
    }
  }
  return true;
}

void RunChaosCase(const ChaosFixture& f, const TiResult& clean,
                  const std::string& spec) {
  SCOPED_TRACE(spec);
  FailPoints::Clear();
  ASSERT_TRUE(FailPoints::Arm(spec).ok()) << spec;
  auto run = RunTiGreedy(*f.instance, f.Options());
  FailPoints::Clear();
  if (!run.ok()) {
    // The only acceptable failure is the clean unrecoverable-fault status.
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted) << spec;
    return;
  }
  const TiResult& r = run.value();
  EXPECT_GT(r.total_seeds, 0u);
  if (ReadSideOnly(spec)) {
    EXPECT_EQ(clean.allocation.seed_sets, r.allocation.seed_sets);
    EXPECT_EQ(clean.total_revenue, r.total_revenue);  // bitwise
    EXPECT_EQ(clean.total_seeding_cost, r.total_seeding_cost);
    EXPECT_EQ(clean.total_seeds, r.total_seeds);
    EXPECT_EQ(clean.total_theta, r.total_theta);
    EXPECT_EQ(clean.total_growth_events, r.total_growth_events);
  }
}

// Fast single-spec case (the suite's smoke entry).
TEST(SpillChaosTest, SingleReadFaultSpecPreservesResult) {
  FailPoints::Clear();
  ChaosFixture f;
  auto clean = RunTiGreedy(*f.instance, f.Options());
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  RunChaosCase(f, clean.value(), "spill.read.eio@p:0.5:2024");
}

TEST(SpillChaosTest, SeededFaultMatrixPreservesResultOrFailsClean) {
  FailPoints::Clear();
  ChaosFixture f;
  auto clean = RunTiGreedy(*f.instance, f.Options());
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  ASSERT_EQ(clean.value().total_degradation_events, 0u);

  std::vector<std::string> specs;
  if (const char* env = std::getenv("ISA_FAILPOINTS")) {
    // CI chaos matrix: exercise the externally chosen spec.
    specs.push_back(env);
  } else {
    specs = {
        "spill.read.eio@every:1",
        "spill.read.eagain@every:3",
        "spill.read.eio@p:0.3:7,spill.read.eio@7",
        "spill.read.eio@every:2",
        "spill.read.eio@every:1,spill.resample.throw@5",
        "spill.write.enospc@p:0.2:99",
        "spill.write.enospc@2,spill.read.eof@p:0.1:5",
    };
  }
  for (const std::string& spec : specs) {
    RunChaosCase(f, clean.value(), spec);
  }
}

}  // namespace
}  // namespace isa
