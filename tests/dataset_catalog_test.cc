// Dataset layer tests: SNAP edge-list round-trips (plain and gzip, via the
// checked-in tests/data/mini_snap.txt fixture), catalog resolution order
// (file -> cache -> deterministic generator), and weighting-regime
// correctness against hand-computed in-degree weights.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dataset_catalog.h"
#include "graph/graph_io.h"
#include "tests/test_util.h"

namespace isa::graph {
namespace {

namespace fs = std::filesystem;

std::string FixturePath(const char* name) {
  return std::string(ISA_TEST_DATA_DIR) + "/" + name;
}

// Fresh empty directory under the test temp root.
std::string MakeTempDir(const char* tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("isa_catalog_") + tag + "_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Order-sensitive FNV over the forward edge list — the graph equality
// check used by the determinism tests.
uint64_t GraphHash(const Graph& g) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  mix(g.num_nodes());
  mix(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      mix(u);
      mix(v);
    }
  }
  return h;
}

// --- Edge-list fixture round-trip -----------------------------------------

// tests/data/mini_snap.txt: 12 lines = 3 comments ('#' and '%') + 2 blanks
// + 7 edge lines; sparse ids 10..50 compacting (first appearance) to 0..4;
// "10 20" appears twice (duplicate), one line is tab-separated.
TEST(MiniSnapFixtureTest, PlainTextParsesWithExpectedStats) {
  auto data = ReadEdgeListText(FixturePath("mini_snap.txt"));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data.value().num_nodes, 5u);
  ASSERT_EQ(data.value().edges.size(), 7u);
  EXPECT_FALSE(data.value().gzipped);
  EXPECT_EQ(data.value().stats.lines, 12u);
  EXPECT_EQ(data.value().stats.comment_lines, 5u);
  EXPECT_EQ(data.value().stats.edge_lines, 7u);
  // First-appearance compaction: 10->0, 20->1, 30->2, 40->3, 50->4.
  const std::vector<Edge> expected = {{0, 1}, {0, 2}, {1, 2}, {2, 3},
                                      {3, 4}, {4, 0}, {0, 1}};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(data.value().edges[i].src, expected[i].src) << "edge " << i;
    EXPECT_EQ(data.value().edges[i].dst, expected[i].dst) << "edge " << i;
  }
}

TEST(MiniSnapFixtureTest, DuplicateEdgeCollapsesInGraph) {
  auto g = LoadEdgeListText(FixturePath("mini_snap.txt"));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().num_nodes(), 5u);
  EXPECT_EQ(g.value().num_edges(), 6u);  // 7 lines, 1 duplicate
  EXPECT_EQ(g.value().dropped_duplicates(), 1u);
}

TEST(MiniSnapFixtureTest, GzipTwinMatchesPlainBitForBit) {
  if (!GzipSupported()) {
    GTEST_SKIP() << "built without zlib";
  }
  auto plain = ReadEdgeListText(FixturePath("mini_snap.txt"));
  auto gz = ReadEdgeListText(FixturePath("mini_snap.txt.gz"));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(gz.ok()) << gz.status().ToString();
  EXPECT_TRUE(gz.value().gzipped);
  EXPECT_EQ(gz.value().num_nodes, plain.value().num_nodes);
  ASSERT_EQ(gz.value().edges.size(), plain.value().edges.size());
  for (size_t i = 0; i < plain.value().edges.size(); ++i) {
    EXPECT_EQ(gz.value().edges[i].src, plain.value().edges[i].src);
    EXPECT_EQ(gz.value().edges[i].dst, plain.value().edges[i].dst);
  }
  EXPECT_EQ(gz.value().stats.edge_lines, plain.value().stats.edge_lines);
}

TEST(MiniSnapFixtureTest, GzipDetectedByMagicNotExtension) {
  if (!GzipSupported()) {
    GTEST_SKIP() << "built without zlib";
  }
  // A gzip payload named ".txt" must still inflate (magic sniffing).
  const std::string dir = MakeTempDir("magic");
  const std::string renamed = dir + "/renamed_plain.txt";
  fs::copy_file(FixturePath("mini_snap.txt.gz"), renamed);
  auto data = ReadEdgeListText(renamed);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_TRUE(data.value().gzipped);
  EXPECT_EQ(data.value().num_nodes, 5u);
}

// --- Catalog resolution ---------------------------------------------------

TEST(DatasetCatalogTest, BuiltinNamesAndResolve) {
  const auto names = DatasetCatalog::Names();
  ASSERT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    auto spec = DatasetCatalog::Resolve(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec.value().name, name);
    EXPECT_GT(spec.value().paper_nodes, 0u) << name;
  }
  // The FLIXSTER stand-in: R-MAT under topic-mix weights with L = 10.
  auto flixster = DatasetCatalog::Resolve("flixster");
  ASSERT_TRUE(flixster.ok());
  EXPECT_EQ(flixster.value().fallback, DatasetSpec::Fallback::kRmat);
  EXPECT_EQ(flixster.value().regime, WeightingRegime::kTopicMix);
  EXPECT_EQ(flixster.value().topic_mix_topics, 10u);
  auto missing = DatasetCatalog::Resolve("soc-nonexistent");
  ASSERT_FALSE(missing.ok());
  // The error teaches the valid names.
  EXPECT_NE(missing.status().message().find("com-dblp"), std::string::npos);
}

TEST(DatasetCatalogTest, RealFileWinsAndUndirectedDoubles) {
  const std::string dir = MakeTempDir("file");
  {
    std::ofstream f(dir + "/com-dblp.ungraph.txt");
    f << "# tiny undirected list\n0 1\n1 2\n2 3\n";
  }
  DatasetCatalog::Options opt;
  opt.data_dir = dir;
  auto loaded = DatasetCatalog::Load(
      "com-dblp", WeightingRegime::kWeightedCascade, opt);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().from_file);
  EXPECT_EQ(loaded.value().source.rfind("file:", 0), 0u)
      << loaded.value().source;
  // 3 undirected edges double into 6 arcs over 4 nodes.
  EXPECT_EQ(loaded.value().graph.num_nodes(), 4u);
  EXPECT_EQ(loaded.value().graph.num_edges(), 6u);
  EXPECT_EQ(loaded.value().load_stats.edge_lines, 3u);
  // Weighted cascade on the doubled graph: one weight array, entries
  // 1/indeg.
  ASSERT_EQ(loaded.value().num_topics(), 1u);
  ASSERT_EQ(loaded.value().arc_weights[0].size(), 6u);
}

TEST(DatasetCatalogTest, FallbackGeneratorIsDeterministic) {
  DatasetCatalog::Options opt;
  opt.data_dir = MakeTempDir("det");  // empty: no file
  opt.scale = 0.01;
  auto a = DatasetCatalog::Load("soc-epinions1",
                                WeightingRegime::kWeightedCascade, opt);
  auto b = DatasetCatalog::Load("soc-epinions1",
                                WeightingRegime::kWeightedCascade, opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_FALSE(a.value().from_file);
  EXPECT_EQ(a.value().source, "synthetic:powerlaw");
  EXPECT_EQ(GraphHash(a.value().graph), GraphHash(b.value().graph));
  EXPECT_EQ(a.value().arc_weights, b.value().arc_weights);

  // A different seed must change the graph (the determinism is in the
  // seed, not a hardcoded artifact).
  auto seeded = opt;
  seeded.seed = 777;
  auto c = DatasetCatalog::Load("soc-epinions1",
                                WeightingRegime::kWeightedCascade, seeded);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_NE(GraphHash(a.value().graph), GraphHash(c.value().graph));
}

// --- Weighting regimes ----------------------------------------------------

// Hand graph: 0->2, 1->2, 2->3, 0->3, 3->1. indeg: 1:1, 2:2, 3:2.
Graph RegimeGadget() {
  return test::MustGraph(4, {{0, 2}, {1, 2}, {2, 3}, {0, 3}, {3, 1}});
}

TEST(WeightingRegimeTest, WeightedCascadeMatchesHandComputedInDegrees) {
  const Graph g = RegimeGadget();
  auto w = MakeRegimeWeights(g, WeightingRegime::kWeightedCascade, 1, 0.0,
                             2017);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_EQ(w.value().size(), 1u);
  ASSERT_EQ(w.value()[0].size(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId dst = g.EdgeDst(e);
    EXPECT_DOUBLE_EQ(w.value()[0][e], 1.0 / g.InDegree(dst)) << "edge " << e;
  }
  // Per-node sum of in-weights is exactly 1.
  std::vector<double> in_sum(g.num_nodes(), 0.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    in_sum[g.EdgeDst(e)] += w.value()[0][e];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InDegree(v) > 0) {
      EXPECT_DOUBLE_EQ(in_sum[v], 1.0) << "node " << v;
    }
  }
}

TEST(WeightingRegimeTest, UniformIcIsConstantAndValidated) {
  const Graph g = RegimeGadget();
  auto w = MakeRegimeWeights(g, WeightingRegime::kUniformIc, 1, 0.07, 2017);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_EQ(w.value().size(), 1u);
  for (double p : w.value()[0]) EXPECT_DOUBLE_EQ(p, 0.07);
  EXPECT_FALSE(
      MakeRegimeWeights(g, WeightingRegime::kUniformIc, 1, 1.5, 2017).ok());
}

TEST(WeightingRegimeTest, TopicMixIsBoundedDeterministicAndPerTopic) {
  const Graph g = RegimeGadget();
  auto a = MakeRegimeWeights(g, WeightingRegime::kTopicMix, 3, 0.0, 2017);
  auto b = MakeRegimeWeights(g, WeightingRegime::kTopicMix, 3, 0.0, 2017);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), 3u);
  EXPECT_EQ(a.value(), b.value());  // bit-identical across calls
  for (uint32_t z = 0; z < 3; ++z) {
    ASSERT_EQ(a.value()[z].size(), g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const double bound = 1.0 / g.InDegree(g.EdgeDst(e));
      EXPECT_GT(a.value()[z][e], 0.0);
      EXPECT_LE(a.value()[z][e], bound);
    }
  }
  // Distinct topic layers draw from distinct substreams.
  EXPECT_NE(a.value()[0], a.value()[1]);
  EXPECT_NE(a.value()[1], a.value()[2]);
  // Seed sensitivity.
  auto c = MakeRegimeWeights(g, WeightingRegime::kTopicMix, 3, 0.0, 99);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value()[0], c.value()[0]);
  EXPECT_FALSE(
      MakeRegimeWeights(g, WeightingRegime::kTopicMix, 0, 0.0, 1).ok());
}

}  // namespace
}  // namespace isa::graph
