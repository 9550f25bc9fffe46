#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "graph/generators.h"
#include "graph/stats.h"

namespace isa::graph {
namespace {

TEST(ErdosRenyiTest, ExactEdgeCount) {
  ErdosRenyiOptions opt{.num_nodes = 100, .num_edges = 500, .seed = 3};
  auto g = GenerateErdosRenyi(opt);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 100u);
  EXPECT_EQ(g.value().num_edges(), 500u);
}

TEST(ErdosRenyiTest, DeterministicInSeed) {
  ErdosRenyiOptions opt{.num_nodes = 50, .num_edges = 200, .seed = 9};
  auto g1 = GenerateErdosRenyi(opt);
  auto g2 = GenerateErdosRenyi(opt);
  ASSERT_TRUE(g1.ok() && g2.ok());
  for (NodeId u = 0; u < 50; ++u) {
    auto a = g1.value().OutNeighbors(u);
    auto b = g2.value().OutNeighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(ErdosRenyiTest, SeedsDiffer) {
  ErdosRenyiOptions a{.num_nodes = 50, .num_edges = 200, .seed = 1};
  ErdosRenyiOptions b{.num_nodes = 50, .num_edges = 200, .seed = 2};
  auto g1 = GenerateErdosRenyi(a);
  auto g2 = GenerateErdosRenyi(b);
  bool differ = false;
  for (NodeId u = 0; u < 50 && !differ; ++u) {
    auto x = g1.value().OutNeighbors(u);
    auto y = g2.value().OutNeighbors(u);
    differ = !std::equal(x.begin(), x.end(), y.begin(), y.end());
  }
  EXPECT_TRUE(differ);
}

TEST(ErdosRenyiTest, RejectsImpossibleDensity) {
  ErdosRenyiOptions opt{.num_nodes = 3, .num_edges = 100, .seed = 1};
  EXPECT_FALSE(GenerateErdosRenyi(opt).ok());
}

TEST(ErdosRenyiTest, RejectsTinyGraph) {
  ErdosRenyiOptions opt{.num_nodes = 1, .num_edges = 0, .seed = 1};
  EXPECT_FALSE(GenerateErdosRenyi(opt).ok());
}

TEST(BarabasiAlbertTest, SizeAndConnectivity) {
  BarabasiAlbertOptions opt{.num_nodes = 500, .edges_per_node = 3, .seed = 4};
  auto g = GenerateBarabasiAlbert(opt);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 500u);
  GraphStats s = ComputeStats(g.value());
  EXPECT_EQ(s.largest_wcc, 500u);  // attachment keeps it connected
}

TEST(BarabasiAlbertTest, HeavyTailedInDegree) {
  BarabasiAlbertOptions opt{.num_nodes = 2000, .edges_per_node = 2,
                            .seed = 5};
  auto g = GenerateBarabasiAlbert(opt);
  ASSERT_TRUE(g.ok());
  GraphStats s = ComputeStats(g.value());
  // Preferential attachment concentrates in-degree far above the mean (~2).
  EXPECT_GT(s.max_in_degree, 30u);
}

TEST(BarabasiAlbertTest, BidirectionalVariant) {
  BarabasiAlbertOptions opt{.num_nodes = 300, .edges_per_node = 2,
                            .bidirectional = true, .seed = 6};
  auto g = GenerateBarabasiAlbert(opt);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(ComputeStats(g.value()).looks_bidirectional);
}

TEST(BarabasiAlbertTest, RejectsBadParams) {
  EXPECT_FALSE(GenerateBarabasiAlbert({.num_nodes = 5, .edges_per_node = 0})
                   .ok());
  EXPECT_FALSE(GenerateBarabasiAlbert({.num_nodes = 3, .edges_per_node = 5})
                   .ok());
}

TEST(RmatTest, ApproximateEdgeCount) {
  RmatOptions opt;
  opt.scale = 12;
  opt.num_edges = 20'000;
  opt.seed = 7;
  auto g = GenerateRmat(opt);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 4096u);
  // Oversampling compensates dedup; expect within 20% of the target.
  EXPECT_GT(g.value().num_edges(), 16'000u);
  EXPECT_LT(g.value().num_edges(), 24'000u);
}

TEST(RmatTest, SkewedDegrees) {
  RmatOptions opt;
  opt.scale = 12;
  opt.num_edges = 30'000;
  opt.seed = 8;
  auto g = GenerateRmat(opt);
  ASSERT_TRUE(g.ok());
  GraphStats s = ComputeStats(g.value());
  EXPECT_GT(s.max_out_degree, 50u);  // hubs from quadrant skew
}

TEST(RmatTest, RejectsBadQuadrants) {
  RmatOptions opt;
  opt.a = 0.5;
  opt.b = 0.5;
  opt.c = 0.5;
  opt.d = 0.5;  // sums to 2
  EXPECT_FALSE(GenerateRmat(opt).ok());
}

TEST(RmatTest, RejectsBadScale) {
  RmatOptions opt;
  opt.scale = 0;
  EXPECT_FALSE(GenerateRmat(opt).ok());
  opt.scale = 40;
  EXPECT_FALSE(GenerateRmat(opt).ok());
}

TEST(PowerLawTest, ApproximateEdgeCount) {
  PowerLawOptions opt{.num_nodes = 5000, .num_edges = 25'000,
                      .exponent = 2.1, .seed = 11};
  auto g = GeneratePowerLaw(opt);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 5000u);
  EXPECT_GT(g.value().num_edges(), 15'000u);
  EXPECT_LT(g.value().num_edges(), 30'000u);
}

TEST(PowerLawTest, HeavyTail) {
  PowerLawOptions opt{.num_nodes = 5000, .num_edges = 25'000,
                      .exponent = 2.0, .seed = 12};
  auto g = GeneratePowerLaw(opt);
  ASSERT_TRUE(g.ok());
  GraphStats s = ComputeStats(g.value());
  // Hubs are capped at ~2% of n (see generators.cc) but still sit an order
  // of magnitude above the mean degree of ~5.
  EXPECT_GT(s.max_out_degree, 10 * 5u);
}

TEST(PowerLawTest, RejectsBadExponent) {
  PowerLawOptions opt{.num_nodes = 100, .num_edges = 200, .exponent = 0.9};
  EXPECT_FALSE(GeneratePowerLaw(opt).ok());
}

// Parameterized determinism sweep across all generators.
class GeneratorDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorDeterminism, AllGeneratorsReproducible) {
  const uint64_t seed = GetParam();
  {
    ErdosRenyiOptions o{.num_nodes = 64, .num_edges = 256, .seed = seed};
    EXPECT_EQ(GenerateErdosRenyi(o).value().num_edges(),
              GenerateErdosRenyi(o).value().num_edges());
  }
  {
    BarabasiAlbertOptions o{.num_nodes = 64, .edges_per_node = 2,
                            .seed = seed};
    auto a = GenerateBarabasiAlbert(o);
    auto b = GenerateBarabasiAlbert(o);
    EXPECT_EQ(a.value().num_edges(), b.value().num_edges());
  }
  {
    RmatOptions o;
    o.scale = 8;
    o.num_edges = 500;
    o.seed = seed;
    EXPECT_EQ(GenerateRmat(o).value().num_edges(),
              GenerateRmat(o).value().num_edges());
  }
  {
    PowerLawOptions o{.num_nodes = 64, .num_edges = 300, .seed = seed};
    EXPECT_EQ(GeneratePowerLaw(o).value().num_edges(),
              GeneratePowerLaw(o).value().num_edges());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorDeterminism,
                         ::testing::Values(1, 17, 42, 1234, 99999));

}  // namespace
}  // namespace isa::graph
