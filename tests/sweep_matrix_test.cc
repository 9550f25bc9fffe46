// Sweep-matrix expander tests: cell-count arithmetic, stable ids and
// ordering, --only filter semantics, and a tiny RunMatrix exercising the
// group determinism gate in-process (the full mini-matrix runs as the
// ctest entry sweep.mini_matrix).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/sweep_matrix.h"

namespace isa::bench {
namespace {

using graph::WeightingRegime;

SweepAxes SmallAxes() {
  SweepAxes axes;
  axes.datasets = {"com-dblp"};
  axes.regimes = {WeightingRegime::kWeightedCascade};
  axes.rules = {SweepRule::kCarm, SweepRule::kCsrm};
  axes.budgets = {1'500};
  axes.memory_fractions = {0.0};
  axes.threads = {1, 2};
  return axes;
}

CellFilter NoFilter() {
  auto f = CellFilter::Parse("");
  EXPECT_TRUE(f.ok());
  return f.value();
}

TEST(SweepExpandTest, CellCountIsTheCrossProduct) {
  SweepAxes axes = SmallAxes();
  axes.datasets = {"com-dblp", "soc-epinions1"};
  axes.regimes = {WeightingRegime::kWeightedCascade,
                  WeightingRegime::kTopicMix};
  axes.budgets = {1'500, 4'500};
  axes.memory_fractions = {0.0, 0.5};
  ExpandStats stats;
  auto cells = ExpandMatrix(axes, NoFilter(), &stats);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  // 2 ds x 2 regimes x 2 rules x 2 budgets x 2 mem x 2 thr.
  EXPECT_EQ(stats.total_combinations, 64u);
  EXPECT_EQ(stats.cells, 64u);
  EXPECT_EQ(cells.value().size(), 64u);
  EXPECT_EQ(stats.filtered_out, 0u);
}

TEST(SweepExpandTest, IdsAreStableAndMemoryFractionZeroLeadsItsGroup) {
  SweepAxes axes = SmallAxes();
  axes.memory_fractions = {0.0, 0.25};
  auto cells = ExpandMatrix(axes, NoFilter(), nullptr);
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells.value().size(), 8u);
  // Golden ids: the contract with check_bench_regression.py and with any
  // committed BENCH_matrix.json — changing the scheme invalidates goldens.
  EXPECT_EQ(cells.value()[0].id, "com-dblp/wc/carm/b1500/m0/t1");
  EXPECT_EQ(cells.value()[0].group, "com-dblp/wc/carm/b1500");
  EXPECT_EQ(cells.value()[1].id, "com-dblp/wc/carm/b1500/m0/t2");
  EXPECT_EQ(cells.value()[2].id, "com-dblp/wc/carm/b1500/m0.25/t1");
  EXPECT_EQ(cells.value()[4].id, "com-dblp/wc/csrm/b1500/m0/t1");
  // Within each group the unbudgeted cells come first (the runner uses the
  // leading unbudgeted run as fraction anchor and determinism base), and
  // expansion never interleaves groups.
  std::string current_group;
  for (const SweepCell& cell : cells.value()) {
    if (cell.group != current_group) {
      current_group = cell.group;
      EXPECT_EQ(cell.memory_fraction, 0.0) << cell.id;
    }
  }
  // A second expansion yields the identical list (stable ordering).
  auto again = ExpandMatrix(axes, NoFilter(), nullptr);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < cells.value().size(); ++i) {
    EXPECT_EQ(cells.value()[i].id, again.value()[i].id);
  }
}

TEST(SweepExpandTest, EmptyAxisIsRejected) {
  SweepAxes axes = SmallAxes();
  axes.budgets.clear();
  auto cells = ExpandMatrix(axes, NoFilter(), nullptr);
  ASSERT_FALSE(cells.ok());
  EXPECT_NE(cells.status().message().find("budgets"), std::string::npos);
}

TEST(SweepFilterTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(CellFilter::Parse("flavor=spicy").ok());   // unknown key
  EXPECT_FALSE(CellFilter::Parse("dataset").ok());        // no '='
  EXPECT_FALSE(CellFilter::Parse("dataset=").ok());       // empty value
  EXPECT_TRUE(CellFilter::Parse("").ok());                // empty = all
  EXPECT_TRUE(CellFilter::Parse(" dataset = com-dblp ").ok());
}

TEST(SweepFilterTest, SameKeyOrsDifferentKeysAnd) {
  SweepAxes axes = SmallAxes();
  axes.datasets = {"com-dblp", "soc-epinions1", "soc-livejournal1"};

  // OR within a key: two of three datasets survive.
  auto or_filter =
      CellFilter::Parse("dataset=com-dblp,dataset=soc-epinions1");
  ASSERT_TRUE(or_filter.ok());
  ExpandStats stats;
  auto cells = ExpandMatrix(axes, or_filter.value(), &stats);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(stats.cells, 8u);  // 2 ds x 2 rules x 2 threads
  EXPECT_EQ(stats.filtered_out, 4u);

  // AND across keys: dataset AND rule AND threads pins one cell.
  auto and_filter =
      CellFilter::Parse("dataset=com-dblp,rule=csrm,threads=2");
  ASSERT_TRUE(and_filter.ok());
  cells = ExpandMatrix(axes, and_filter.value(), &stats);
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(stats.cells, 1u);
  EXPECT_EQ(cells.value()[0].id, "com-dblp/wc/csrm/b1500/m0/t2");

  // Numeric axes match on their rendered form ("budget=1500").
  auto budget_filter = CellFilter::Parse("budget=1500,mem=0");
  ASSERT_TRUE(budget_filter.ok());
  cells = ExpandMatrix(axes, budget_filter.value(), &stats);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(stats.cells, 12u);
}

TEST(SweepParseTest, RuleNamesRoundTrip) {
  for (SweepRule r : {SweepRule::kCarm, SweepRule::kCsrm}) {
    auto parsed = ParseSweepRule(SweepRuleName(r));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), r);
  }
  EXPECT_FALSE(ParseSweepRule("pagerank").ok());
}

// End-to-end on a two-variant group at tiny scale: the thread variant must
// be bit-identical to the base, the JSON must carry the gate verdict.
TEST(SweepRunTest, ThreadVariantsAreBitIdenticalAndReported) {
  SweepAxes axes = SmallAxes();
  axes.rules = {SweepRule::kCarm};
  auto cells = ExpandMatrix(axes, NoFilter(), nullptr);
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells.value().size(), 2u);

  SweepRunOptions opt;
  opt.scale = 0.005;
  opt.theta_cap = 2'000;
  opt.num_advertisers = 2;
  auto report = RunMatrix(cells.value(), opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().outcomes.size(), 2u);
  EXPECT_TRUE(report.value().determinism_ok);
  const auto& base = report.value().outcomes[0];
  const auto& variant = report.value().outcomes[1];
  EXPECT_EQ(base.cell.num_threads, 1u);
  EXPECT_EQ(variant.cell.num_threads, 2u);
  EXPECT_TRUE(variant.determinism_ok);
  EXPECT_EQ(base.revenue, variant.revenue);
  EXPECT_EQ(base.seeds, variant.seeds);
  EXPECT_EQ(base.theta, variant.theta);
  EXPECT_GT(base.seeds, 0u);

  const std::string json =
      MatrixReportToJson(report.value(), opt, "{}");
  EXPECT_NE(json.find("\"bench\": \"sweep_matrix\""), std::string::npos);
  EXPECT_NE(json.find("\"determinism_ok\": true"), std::string::npos);
  EXPECT_NE(json.find("com-dblp/wc/carm/b1500/m0/t2"),
            std::string::npos);
}

}  // namespace
}  // namespace isa::bench
