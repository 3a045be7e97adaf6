// The Dijkstra kernel behind every Routing row must produce the same rows,
// bit for bit, as the reference kernel below: a fresh std::priority_queue of
// (distance, node) pairs per row with strict-less relaxation.  Every table
// shape builds its rows with the one kernel, so dist and pred are compared
// in full for dense (sequential and parallel) and agent-row tables.
// The graphs are full of exact ties (unit, integer and tenth-of-a-ms
// delays): with ties, pred depends on the order in which equal-distance
// nodes are settled, so a heap that broke ties any other way than by node id
// would change rows.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "support/tie_trees.hpp"
#include "util/rng.hpp"

namespace rmrn::net {
namespace {

struct Row {
  std::vector<DelayMs> dist;
  std::vector<NodeId> pred;
};

// The reference kernel: one std::priority_queue per row, popped in
// (distance, node) order.
Row referenceRow(const Graph& g, NodeId src) {
  Row row{std::vector<DelayMs>(g.numNodes(),
                               std::numeric_limits<DelayMs>::infinity()),
          std::vector<NodeId>(g.numNodes(), kInvalidNode)};
  using QueueEntry = std::pair<DelayMs, NodeId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  row.dist[src] = 0.0;
  queue.push({0.0, src});
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > row.dist[v]) continue;
    for (const HalfEdge& e : g.neighbors(v)) {
      const DelayMs nd = d + e.delay;
      if (nd < row.dist[e.to]) {
        row.dist[e.to] = nd;
        row.pred[e.to] = v;
        queue.push({nd, e.to});
      }
    }
  }
  return row;
}

// A Routing row read back through the public API: pred[b] is the node
// before b on path(src, b), and kInvalidNode for src and unreachable nodes.
Row routingRow(const Routing& routing, NodeId src) {
  Row row;
  std::vector<NodeId> path;
  for (NodeId b = 0; b < routing.numNodes(); ++b) {
    row.dist.push_back(routing.distance(src, b));
    routing.pathInto(src, b, path);
    row.pred.push_back(path.size() >= 2 ? path[path.size() - 2]
                                        : kInvalidNode);
  }
  return row;
}

::testing::AssertionResult sameRow(const Row& got, const Row& want,
                                   NodeId src) {
  for (std::size_t b = 0; b < want.dist.size(); ++b) {
    if (std::bit_cast<std::uint64_t>(got.dist[b]) !=
            std::bit_cast<std::uint64_t>(want.dist[b]) ||
        got.pred[b] != want.pred[b]) {
      return ::testing::AssertionFailure()
             << "row " << src << ", node " << b << ": dist " << got.dist[b]
             << " pred " << got.pred[b] << ", reference dist "
             << want.dist[b] << " pred " << want.pred[b];
    }
  }
  return ::testing::AssertionSuccess();
}

void expectRowsMatchReference(const Topology& topo) {
  const Graph& g = topo.graph;
  const Routing dense(g, 1u);
  const Routing parallel(g, 4u);
  const std::vector<NodeId> agents = topo.agents();
  const Routing agent_rows(g, agents, 4u);
  for (NodeId src = 0; src < g.numNodes(); ++src) {
    const Row want = referenceRow(g, src);
    ASSERT_TRUE(sameRow(routingRow(dense, src), want, src));
    ASSERT_TRUE(sameRow(routingRow(parallel, src), want, src));
    if (agent_rows.hasSourceRow(src)) {
      ASSERT_TRUE(sameRow(routingRow(agent_rows, src), want, src));
    }
  }
}

Topology paperTopology(std::uint64_t seed, std::uint32_t nodes) {
  util::Rng rng(seed);
  TopologyConfig config;
  config.num_nodes = nodes;
  return generateTopology(config, rng);
}

// A rows x cols grid with unit delays: every interior node is reached by
// several shortest paths of equal length.
Topology unitGrid(NodeId rows, NodeId cols) {
  Topology topo;
  topo.graph = Graph(rows * cols);
  std::vector<NodeId> parent(rows * cols, kInvalidNode);
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      const NodeId v = r * cols + c;
      if (c + 1 < cols) topo.graph.addEdge(v, v + 1, 1.0);
      if (r + 1 < rows) topo.graph.addEdge(v, v + cols, 1.0);
      if (v != 0) parent[v] = c == 0 ? v - cols : v - 1;
      if (r + 1 == rows && c + 1 == cols) topo.clients.push_back(v);
    }
  }
  topo.tree = MulticastTree(0, std::move(parent));
  topo.source = 0;
  return topo;
}

TEST(RoutingKernelTest, UnitDelayGrid) {
  expectRowsMatchReference(unitGrid(9, 13));
}

TEST(RoutingKernelTest, UnitDelayRandomGraphs) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    expectRowsMatchReference(
        test_support::withIntegerDelays(paperTopology(seed, 80), rng, 1));
  }
}

TEST(RoutingKernelTest, IntegerDelayRandomGraphs) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    expectRowsMatchReference(
        test_support::withIntegerDelays(paperTopology(seed, 80), rng, 3));
  }
}

TEST(RoutingKernelTest, IntegerDelayWaxmanGraphs) {
  for (const std::uint64_t seed : {31u, 32u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    TopologyConfig config;
    config.num_nodes = 80;
    config.model = BackboneModel::kWaxman;
    expectRowsMatchReference(test_support::withIntegerDelays(
        generateTopology(config, rng), rng, 2));
  }
}

TEST(RoutingKernelTest, TieTreeShapes) {
  expectRowsMatchReference(test_support::unitDelayTernaryTree());
  util::Rng rng(41);
  const Topology tree = generateTreeTopology(90, rng);
  expectRowsMatchReference(
      test_support::withTenthDelaysAndInternalClients(tree, rng));
}

TEST(RoutingKernelTest, RandomDelayGraphs) {
  for (const std::uint64_t seed : {51u, 52u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectRowsMatchReference(paperTopology(seed, 120));
  }
}

}  // namespace
}  // namespace rmrn::net
