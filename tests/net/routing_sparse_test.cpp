// Sparse-mode and multithreaded Routing must agree exactly with the dense
// sequential tables: rows are independent deterministic Dijkstra runs, so
// distance, path and nextHop answers are bit-identical however the tables
// were built.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "support/tie_trees.hpp"
#include "util/rng.hpp"

namespace rmrn::net {
namespace {

// One topology family and seed.  Waxman graphs add geometric delays and
// denser meshes; integer delays make many shortest paths tie exactly, so
// the tables agree only if every build breaks ties the same way.
struct EquivalenceCase {
  enum class Family { kPaper, kWaxman, kIntegerDelays };
  Family family;
  std::uint64_t seed;
};

// Test names carry the seed alone; the instantiation prefix names the family.
void PrintTo(const EquivalenceCase& c, std::ostream* os) { *os << c.seed; }

class RoutingEquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {
 protected:
  static Topology makeTopology(const EquivalenceCase& c) {
    util::Rng rng(c.seed);
    TopologyConfig config;
    config.num_nodes = 70;
    if (c.family == EquivalenceCase::Family::kWaxman) {
      config.model = BackboneModel::kWaxman;
    }
    const Topology topo = generateTopology(config, rng);
    if (c.family != EquivalenceCase::Family::kIntegerDelays) return topo;
    return test_support::withIntegerDelays(topo, rng, 3);
  }
};

TEST_P(RoutingEquivalenceTest, SparseMatchesDenseOnRandomGraphs) {
  const Topology topo = makeTopology(GetParam());
  const Routing dense(topo.graph);

  const std::vector<NodeId> sources = topo.agents();
  const Routing sparse(topo.graph, sources);

  EXPECT_EQ(sparse.numNodes(), dense.numNodes());
  EXPECT_EQ(sparse.numRows(), sources.size());
  for (const NodeId a : sources) {
    ASSERT_TRUE(sparse.hasSourceRow(a));
    for (NodeId b = 0; b < topo.graph.numNodes(); ++b) {
      EXPECT_EQ(sparse.distance(a, b), dense.distance(a, b))
          << a << " -> " << b;
      EXPECT_EQ(sparse.rtt(a, b), dense.rtt(a, b));
      EXPECT_EQ(sparse.path(a, b), dense.path(a, b));
      EXPECT_EQ(sparse.nextHop(a, b), dense.nextHop(a, b));
    }
  }
}

TEST_P(RoutingEquivalenceTest, ParallelBuildMatchesSequential) {
  const Topology topo = makeTopology(GetParam());
  const Routing sequential(topo.graph, 1u);
  const Routing parallel(topo.graph, 4u);
  for (NodeId a = 0; a < topo.graph.numNodes(); ++a) {
    for (NodeId b = 0; b < topo.graph.numNodes(); ++b) {
      EXPECT_EQ(parallel.distance(a, b), sequential.distance(a, b));
      EXPECT_EQ(parallel.nextHop(a, b), sequential.nextHop(a, b));
    }
  }
}

TEST_P(RoutingEquivalenceTest, SparseParallelMatchesSparseSequential) {
  const Topology topo = makeTopology(GetParam());
  const std::vector<NodeId> sources = topo.agents();
  const Routing sequential(topo.graph, sources, 1u);
  const Routing parallel(topo.graph, sources, 4u);
  for (const NodeId a : sources) {
    for (NodeId b = 0; b < topo.graph.numNodes(); ++b) {
      EXPECT_EQ(parallel.distance(a, b), sequential.distance(a, b));
    }
  }
}

using Family = EquivalenceCase::Family;
INSTANTIATE_TEST_SUITE_P(Seeds, RoutingEquivalenceTest,
                         ::testing::Values(EquivalenceCase{Family::kPaper, 101},
                                           EquivalenceCase{Family::kPaper, 202},
                                           EquivalenceCase{Family::kPaper, 303},
                                           EquivalenceCase{Family::kPaper, 404},
                                           EquivalenceCase{Family::kPaper, 505}));
INSTANTIATE_TEST_SUITE_P(
    Waxman, RoutingEquivalenceTest,
    ::testing::Values(EquivalenceCase{Family::kWaxman, 101},
                      EquivalenceCase{Family::kWaxman, 202},
                      EquivalenceCase{Family::kWaxman, 303}));
INSTANTIATE_TEST_SUITE_P(
    IntegerDelays, RoutingEquivalenceTest,
    ::testing::Values(EquivalenceCase{Family::kIntegerDelays, 101},
                      EquivalenceCase{Family::kIntegerDelays, 202},
                      EquivalenceCase{Family::kIntegerDelays, 303}));

TEST(RoutingSparseTest, QueriesOutsideSourceSetThrow) {
  util::Rng rng(9);
  TopologyConfig config;
  config.num_nodes = 30;
  const Topology topo = generateTopology(config, rng);
  const std::vector<NodeId> sources = topo.clients;
  const Routing sparse(topo.graph, sources);

  NodeId non_source = kInvalidNode;
  for (NodeId v = 0; v < topo.graph.numNodes(); ++v) {
    if (!sparse.hasSourceRow(v)) {
      non_source = v;
      break;
    }
  }
  ASSERT_NE(non_source, kInvalidNode);
  EXPECT_THROW((void)sparse.distance(non_source, sources.front()),
               std::out_of_range);
  EXPECT_THROW((void)sparse.path(non_source, sources.front()),
               std::out_of_range);
  EXPECT_THROW((void)sparse.nextHop(non_source, sources.front()),
               std::out_of_range);
  // The second argument may be any node.
  EXPECT_NO_THROW((void)sparse.distance(sources.front(), non_source));
}

TEST(RoutingSparseTest, RejectsBadSourceSets) {
  util::Rng rng(10);
  TopologyConfig config;
  config.num_nodes = 20;
  const Topology topo = generateTopology(config, rng);
  const std::vector<NodeId> duplicated{1, 2, 1};
  EXPECT_THROW(Routing(topo.graph, duplicated), std::invalid_argument);
  const std::vector<NodeId> out_of_range{1, 999};
  EXPECT_THROW(Routing(topo.graph, out_of_range), std::invalid_argument);
}

TEST(RoutingSparseTest, EmptySourceSpanMeansDense) {
  util::Rng rng(11);
  TopologyConfig config;
  config.num_nodes = 15;
  const Topology topo = generateTopology(config, rng);
  const Routing dense(topo.graph, std::span<const NodeId>{});
  EXPECT_EQ(dense.numRows(), topo.graph.numNodes());
  for (NodeId v = 0; v < topo.graph.numNodes(); ++v) {
    EXPECT_TRUE(dense.hasSourceRow(v));
  }
}

}  // namespace
}  // namespace rmrn::net
