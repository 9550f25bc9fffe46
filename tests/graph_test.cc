#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "tests/test_util.h"

namespace isa::graph {
namespace {

TEST(GraphTest, EmptyGraph) {
  auto g = Graph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 0u);
  EXPECT_EQ(g.value().num_edges(), 0u);
}

TEST(GraphTest, BasicAdjacency) {
  Graph g = test::MustGraph(4, {{0, 1}, {0, 2}, {2, 3}, {1, 3}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  auto n0 = g.OutNeighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(3), 2u);
}

TEST(GraphTest, TransposeConsistent) {
  Graph g = test::MustGraph(5, {{0, 1}, {2, 1}, {3, 1}, {1, 4}, {4, 0}});
  auto in1 = g.InNeighbors(1);
  std::vector<NodeId> sources(in1.begin(), in1.end());
  std::sort(sources.begin(), sources.end());
  EXPECT_EQ(sources, (std::vector<NodeId>{0, 2, 3}));
}

TEST(GraphTest, InEdgeIdsPointToForwardEdges) {
  Graph g = test::MustGraph(4, {{0, 2}, {1, 2}, {3, 2}});
  auto srcs = g.InNeighbors(2);
  auto eids = g.InEdgeIds(2);
  ASSERT_EQ(srcs.size(), 3u);
  for (size_t k = 0; k < srcs.size(); ++k) {
    EXPECT_EQ(g.EdgeSrc(eids[k]), srcs[k]);
    EXPECT_EQ(g.EdgeDst(eids[k]), 2u);
  }
}

TEST(GraphTest, EdgeSrcLookup) {
  Graph g = test::MustGraph(3, {{0, 1}, {0, 2}, {1, 2}});
  EXPECT_EQ(g.EdgeSrc(0), 0u);
  EXPECT_EQ(g.EdgeSrc(1), 0u);
  EXPECT_EQ(g.EdgeSrc(2), 1u);
}

TEST(GraphTest, DropsSelfLoops) {
  Graph g = test::MustGraph(3, {{0, 0}, {0, 1}, {1, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.dropped_self_loops(), 2u);
}

TEST(GraphTest, DropsDuplicates) {
  Graph g = test::MustGraph(3, {{0, 1}, {0, 1}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.dropped_duplicates(), 2u);
}

TEST(GraphTest, RejectsOutOfRangeEndpoints) {
  EXPECT_FALSE(Graph::FromEdges(2, {{0, 5}}).ok());
  EXPECT_FALSE(Graph::FromEdges(2, {{7, 0}}).ok());
}

TEST(GraphTest, MemoryBytesPositive) {
  Graph g = test::MustGraph(10, {{0, 1}, {1, 2}});
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(GraphTest, IsolatedNodesAllowed) {
  Graph g = test::MustGraph(10, {{0, 1}});
  EXPECT_EQ(g.OutDegree(5), 0u);
  EXPECT_EQ(g.InDegree(5), 0u);
}

// ---------- I/O ----------

TEST(GraphIoTest, TextRoundTrip) {
  Graph g = test::MustGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const std::string path = ::testing::TempDir() + "/isa_g.txt";
  ASSERT_TRUE(SaveEdgeListText(g, path).ok());
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 4u);
  EXPECT_EQ(loaded.value().num_edges(), 4u);
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextSkipsCommentsAndCompactsIds) {
  const std::string path = ::testing::TempDir() + "/isa_g2.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# comment\n100 200\n200 300\n\n100 300\n", f);
    std::fclose(f);
  }
  auto g = LoadEdgeListText(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 3u);  // ids compacted to 0..2
  EXPECT_EQ(g.value().num_edges(), 3u);
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextRejectsMalformedLine) {
  const std::string path = ::testing::TempDir() + "/isa_g3.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1 2\nnot numbers\n", f);
    std::fclose(f);
  }
  auto result = LoadEdgeListText(path);
  ASSERT_FALSE(result.ok());
  // The error names the file and the 1-based offending line.
  EXPECT_NE(result.status().message().find(":2:"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextToleratesCommentsWhitespaceAndDuplicates) {
  const std::string path = ::testing::TempDir() + "/isa_g4.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    // '#' (SNAP) and '%' (KONECT) comments, blank lines, leading and
    // trailing whitespace/tabs, and a duplicate edge.
    std::fputs("% konect header\n# snap header\n\n  0 1  \n1\t2\n0 1\n", f);
    std::fclose(f);
  }
  EdgeListLoadStats stats;
  auto g = LoadEdgeListText(path, &stats);
  ASSERT_TRUE(g.ok()) << g.status().message();
  EXPECT_EQ(g.value().num_nodes(), 3u);
  EXPECT_EQ(g.value().num_edges(), 2u);  // duplicate collapsed
  EXPECT_EQ(g.value().dropped_duplicates(), 1u);
  EXPECT_EQ(stats.lines, 6u);
  EXPECT_EQ(stats.comment_lines, 3u);  // '%', '#', blank
  EXPECT_EQ(stats.edge_lines, 3u);
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextRejectsNegativeIdsWithLineNumber) {
  const std::string path = ::testing::TempDir() + "/isa_g5.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    // istream >> uint64_t would accept -1 by wrapping to 2^64-1; the
    // loader must reject it instead of inventing a huge node id.
    std::fputs("0 1\n1 2\n-1 2\n", f);
    std::fclose(f);
  }
  auto result = LoadEdgeListText(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":3:"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextRejectsTrailingGarbageWithLineNumber) {
  const std::string path = ::testing::TempDir() + "/isa_g6.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    // A third column means a weighted/attributed format the loader does
    // not understand — silently dropping it would misread the input.
    std::fputs("0 1\n1 2 0.5\n", f);
    std::fclose(f);
  }
  auto result = LoadEdgeListText(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":2:"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextRejectsMissingField) {
  const std::string path = ::testing::TempDir() + "/isa_g7.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("0 1\n7\n", f);
    std::fclose(f);
  }
  auto result = LoadEdgeListText(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":2:"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFile) {
  EXPECT_FALSE(LoadEdgeListText("/no/such/file").ok());
}

// ---------- stats ----------

TEST(GraphStatsTest, BasicCounts) {
  Graph g = test::MustGraph(6, {{0, 1}, {0, 2}, {0, 3}, {4, 0}});
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_nodes, 6u);
  EXPECT_EQ(s.num_edges, 4u);
  EXPECT_EQ(s.max_out_degree, 3u);
  EXPECT_EQ(s.max_in_degree, 1u);
  EXPECT_EQ(s.num_isolated, 1u);  // node 5
  EXPECT_EQ(s.largest_wcc, 5u);
  EXPECT_FALSE(s.looks_bidirectional);
  EXPECT_NEAR(s.avg_degree, 4.0 / 6.0, 1e-12);
}

TEST(GraphStatsTest, BidirectionalDetection) {
  Graph g = test::MustGraph(3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}});
  EXPECT_TRUE(ComputeStats(g).looks_bidirectional);
}

TEST(GraphStatsTest, TwoComponents) {
  Graph g = test::MustGraph(6, {{0, 1}, {1, 2}, {3, 4}});
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.largest_wcc, 3u);
}

TEST(GraphStatsTest, DegreeHistogram) {
  Graph g = test::MustGraph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  auto hist = OutDegreeHistogram(g, 2);
  // node 0 has degree 3 -> capped bucket 2; node 1 degree 1; nodes 2,3: 0.
  EXPECT_EQ(hist[0], 2u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);
}

}  // namespace
}  // namespace isa::graph
