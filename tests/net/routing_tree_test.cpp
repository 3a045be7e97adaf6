// Tree-metric Routing must agree with the dense tables: it reads the same
// shortest paths off the multicast tree whenever the backbone is a tree
// (tree paths are then the only paths).
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace rmrn::net {
namespace {

Topology makeGraphTopology(std::uint64_t seed, std::uint32_t n = 60) {
  util::Rng rng(seed);
  TopologyConfig config;
  config.num_nodes = n;
  return generateTopology(config, rng);
}

TEST(CsrAdjacencyTest, MatchesGraphNeighbors) {
  const Topology topo = makeGraphTopology(21);
  const CsrAdjacency csr(topo.graph);
  ASSERT_EQ(csr.numNodes(), topo.graph.numNodes());
  for (NodeId v = 0; v < topo.graph.numNodes(); ++v) {
    const auto expect = topo.graph.neighbors(v);
    const auto got = csr.neighbors(v);
    ASSERT_EQ(got.size(), expect.size()) << "node " << v;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].to, expect[i].to);
      EXPECT_EQ(got[i].delay, expect[i].delay);
    }
  }
}

class TreeMetricRoutingTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TreeMetricRoutingTest, ExactOnTreeBackbones) {
  util::Rng rng(GetParam());
  const Topology topo = generateTreeTopology(80, rng);
  const Routing dense(topo.graph);
  const Routing tree(topo.graph, topo.tree);

  EXPECT_EQ(tree.numRows(), 0u);
  for (const NodeId a : topo.tree.members()) {
    ASSERT_TRUE(tree.hasSourceRow(a));
    for (const NodeId b : topo.tree.members()) {
      // Same link delays summed in tree order vs Dijkstra relaxation order:
      // equal up to FP rounding.
      ASSERT_NEAR(tree.distance(a, b), dense.distance(a, b), 1e-9)
          << a << " -> " << b;
      EXPECT_EQ(tree.path(a, b), dense.path(a, b));
      EXPECT_EQ(tree.nextHop(a, b), dense.nextHop(a, b));
    }
  }
}

TEST_P(TreeMetricRoutingTest, RttIsSymmetric) {
  util::Rng rng(GetParam());
  const Topology topo = generateTreeTopology(50, rng);
  const Routing tree(topo.graph, topo.tree);
  for (const NodeId a : topo.clients) {
    for (const NodeId b : topo.clients) {
      EXPECT_EQ(tree.rtt(a, b), tree.rtt(b, a));
    }
    EXPECT_EQ(tree.distance(a, a), 0.0);
  }
}

TEST_P(TreeMetricRoutingTest, UpperBoundsShortestPathOnGraphs) {
  // With extra (non-tree) links the tree metric can only overestimate: it
  // charges the unique tree path while Dijkstra may shortcut.
  const Topology topo = makeGraphTopology(GetParam());
  const Routing dense(topo.graph);
  const Routing tree(topo.graph, topo.tree);
  for (const NodeId a : topo.clients) {
    for (const NodeId b : topo.clients) {
      EXPECT_GE(tree.distance(a, b), dense.distance(a, b) - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeMetricRoutingTest,
                         ::testing::Values(7, 17, 27));

TEST(TreeMetricRoutingTest, NonMembersThrow) {
  util::Rng rng(5);
  const Topology topo = generateTreeTopology(30, rng);
  const Routing tree(topo.graph, topo.tree);
  // Tree topologies have every node in the tree, so synthesize a graph with
  // a node the tree skips.
  Graph g(4);
  g.addEdge(0, 1, 1.0);
  g.addEdge(1, 2, 1.0);
  g.addEdge(2, 3, 1.0);
  std::vector<NodeId> parent{kInvalidNode, 0, 1, kInvalidNode};
  const MulticastTree partial(0, parent);
  const Routing r(g, partial);
  EXPECT_FALSE(r.hasSourceRow(3));
  EXPECT_THROW((void)r.distance(3, 0), std::out_of_range);
  EXPECT_THROW((void)r.distance(0, 3), std::out_of_range);
  EXPECT_THROW((void)r.nextHop(3, 0), std::out_of_range);
  EXPECT_NO_THROW((void)r.distance(0, 2));
}

TEST(TreeMetricRoutingTest, RejectsTreeEdgesMissingFromGraph) {
  Graph g(3);
  g.addEdge(0, 1, 1.0);
  g.addEdge(1, 2, 1.0);
  // Parent array claims an edge {0, 2} that the graph does not have.
  std::vector<NodeId> parent{kInvalidNode, 0, 0};
  const MulticastTree bad(0, parent);
  EXPECT_THROW(Routing(g, bad), std::invalid_argument);
}

TEST(TreeTopologyTest, IsDeterministicAndWellFormed) {
  util::Rng rng_a(42);
  util::Rng rng_b(42);
  const Topology a = generateTreeTopology(500, rng_a);
  const Topology b = generateTreeTopology(500, rng_b);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.clients, b.clients);
  EXPECT_EQ(a.graph.numEdges(), 499u) << "a tree has n - 1 edges";
  EXPECT_EQ(a.tree.numMembers(), 500u) << "spanning tree of a tree is total";
  ASSERT_FALSE(a.clients.empty());
  // ~n/e leaves, loosely bounded.
  EXPECT_GT(a.clients.size(), 100u);
  EXPECT_LT(a.clients.size(), 300u);
  for (const NodeId c : a.clients) {
    EXPECT_TRUE(a.tree.children(c).empty()) << "clients are leaves";
    EXPECT_NE(c, a.source);
  }
  for (NodeId v = 0; v < 500; ++v) {
    for (const HalfEdge& e : a.graph.neighbors(v)) {
      const auto d = b.graph.edgeDelay(v, e.to);
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(*d, e.delay);
    }
  }
}

}  // namespace
}  // namespace rmrn::net
