#include "core/candidates.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rmrn::core {
namespace {

using net::NodeId;

// Fixture (edge delays in parentheses; all routing follows tree edges):
//
//            0 (source)
//            | (1)
//            1
//       (1) / \ (2)
//          2   5
//     (1) / \(4)\ (1)
//        3   4   6
//           (1)./ \ (2)
//              7   8
//
// Depths: 3,4 -> 3;  7,8 -> 4.  Clients = {3, 4, 7, 8}.
struct Fixture {
  net::Topology topo;
  net::Routing routing;

  Fixture() : topo(build()), routing(topo.graph) {}

  static net::Topology build() {
    net::Topology t;
    t.graph = net::Graph(9);
    t.graph.addEdge(0, 1, 1.0);
    t.graph.addEdge(1, 2, 1.0);
    t.graph.addEdge(1, 5, 2.0);
    t.graph.addEdge(2, 3, 1.0);
    t.graph.addEdge(2, 4, 4.0);
    t.graph.addEdge(5, 6, 1.0);
    t.graph.addEdge(6, 7, 1.0);
    t.graph.addEdge(6, 8, 2.0);
    std::vector<NodeId> parent(9, net::kInvalidNode);
    parent[1] = 0;
    parent[2] = 1;
    parent[5] = 1;
    parent[3] = 2;
    parent[4] = 2;
    parent[6] = 5;
    parent[7] = 6;
    parent[8] = 6;
    t.tree = net::MulticastTree(0, std::move(parent));
    t.source = 0;
    t.clients = {3, 4, 7, 8};
    return t;
  }
};

TEST(CompetitiveClassesTest, PartitionsByFirstCommonRouter) {
  const Fixture f;
  const auto classes = competitiveClasses(3, f.topo.tree, f.topo.clients);
  ASSERT_EQ(classes.size(), 2u);
  // Descending DS: class at router 2 (ds 2) then router 1 (ds 1).
  EXPECT_EQ(classes[0].common_router, 2u);
  EXPECT_EQ(classes[0].ds, 2u);
  EXPECT_EQ(classes[0].peers, (std::vector<NodeId>{4}));
  EXPECT_EQ(classes[1].common_router, 1u);
  EXPECT_EQ(classes[1].ds, 1u);
  EXPECT_EQ(classes[1].peers, (std::vector<NodeId>{7, 8}));
}

TEST(CompetitiveClassesTest, ExcludesSelfAndSource) {
  const Fixture f;
  auto clients = f.topo.clients;
  clients.push_back(0);  // source slipped into the list
  const auto classes = competitiveClasses(3, f.topo.tree, clients);
  for (const auto& cls : classes) {
    for (const NodeId p : cls.peers) {
      EXPECT_NE(p, 3u);
      EXPECT_NE(p, 0u);
    }
  }
}

TEST(CompetitiveClassesTest, DeeperClient) {
  const Fixture f;
  const auto classes = competitiveClasses(7, f.topo.tree, f.topo.clients);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].common_router, 6u);
  EXPECT_EQ(classes[0].ds, 3u);
  EXPECT_EQ(classes[0].peers, (std::vector<NodeId>{8}));
  EXPECT_EQ(classes[1].common_router, 1u);
  EXPECT_EQ(classes[1].ds, 1u);
  EXPECT_EQ(classes[1].peers, (std::vector<NodeId>{3, 4}));
}

#if RMRN_CHECKS_ENABLED
TEST(CompetitiveClassesTest, RejectsNonMembers) {
  const Fixture f;
  util::ScopedCheckPolicy scoped(util::CheckPolicy::kThrow);
  EXPECT_THROW(competitiveClasses(42, f.topo.tree, f.topo.clients),
               util::ContractViolation);
  EXPECT_THROW(competitiveClasses(3, f.topo.tree, {42}),
               util::ContractViolation);
  EXPECT_THROW(selectCandidates(42, f.topo.tree, f.routing, f.topo.clients),
               util::ContractViolation);
  EXPECT_THROW(selectCandidates(3, f.topo.tree, f.routing, {42}),
               util::ContractViolation);
}
#endif  // RMRN_CHECKS_ENABLED

TEST(SelectCandidatesTest, OnePerClassMinRtt) {
  const Fixture f;
  const auto candidates =
      selectCandidates(3, f.topo.tree, f.routing, f.topo.clients);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].peer, 4u);
  EXPECT_EQ(candidates[0].ds, 2u);
  EXPECT_DOUBLE_EQ(candidates[0].rtt_ms, 10.0);  // 2 * (1 + 4)
  // Class {7, 8}: rtt(3,7) = 12 < rtt(3,8) = 14.
  EXPECT_EQ(candidates[1].peer, 7u);
  EXPECT_EQ(candidates[1].ds, 1u);
  EXPECT_DOUBLE_EQ(candidates[1].rtt_ms, 12.0);
}

TEST(SelectCandidatesTest, StrictlyDescendingDs) {
  const Fixture f;
  for (const NodeId u : f.topo.clients) {
    const auto candidates =
        selectCandidates(u, f.topo.tree, f.routing, f.topo.clients);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      EXPECT_LT(candidates[i].ds, candidates[i - 1].ds);
    }
    if (!candidates.empty()) {
      EXPECT_LT(candidates.front().ds, f.topo.tree.depth(u));
    }
  }
}

TEST(SelectCandidatesTest, TieBreaksTowardLowestId) {
  // Symmetric star under one router: both siblings at equal RTT.
  net::Topology t;
  t.graph = net::Graph(5);
  t.graph.addEdge(0, 1, 1.0);
  t.graph.addEdge(1, 2, 2.0);
  t.graph.addEdge(1, 3, 2.0);
  t.graph.addEdge(1, 4, 2.0);
  std::vector<NodeId> parent(5, net::kInvalidNode);
  parent[1] = 0;
  parent[2] = 1;
  parent[3] = 1;
  parent[4] = 1;
  t.tree = net::MulticastTree(0, std::move(parent));
  t.source = 0;
  t.clients = {2, 3, 4};
  const net::Routing routing(t.graph);
  const auto candidates = selectCandidates(4, t.tree, routing, t.clients);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].peer, 2u);  // 2 and 3 tie at rtt 8; lowest id wins
}

TEST(SelectCandidatesTest, RttTieBreaksBySourceRttBeforeId) {
  // 0.1 + 0.2 rounds above 0.3: peers 1 and 2 sit at source RTTs
  // 0.6000000000000001 and 0.6, yet both are 4 ms from client 5.
  net::Topology t;
  t.graph = net::Graph(6);
  t.graph.addEdge(0, 4, 0.1);
  t.graph.addEdge(4, 1, 0.2);
  t.graph.addEdge(0, 2, 0.3);
  t.graph.addEdge(0, 3, 1.0);
  t.graph.addEdge(3, 5, 0.7);
  std::vector<NodeId> parent(6, net::kInvalidNode);
  parent[4] = 0;
  parent[1] = 4;
  parent[2] = 0;
  parent[3] = 0;
  parent[5] = 3;
  t.tree = net::MulticastTree(0, std::move(parent));
  t.source = 0;
  t.clients = {1, 2, 5};
  const net::Routing routing(t.graph, t.tree);
  ASSERT_EQ(routing.rtt(5, 1), routing.rtt(5, 2));
  const auto candidates = selectCandidates(5, t.tree, routing, t.clients);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].peer, 2u);

  const auto source_rtt = [](NodeId w) { return w == 1 ? 0.7 : 0.6; };
  EXPECT_TRUE(classBefore({2, 0, 4.0}, {1, 0, 4.0}, source_rtt));
  EXPECT_TRUE(classBefore({1, 0, 3.9}, {2, 0, 4.0}, source_rtt));
  EXPECT_TRUE(classBefore({3, 0, 4.0}, {4, 0, 4.0}, source_rtt));
  EXPECT_FALSE(classBefore({4, 0, 4.0}, {3, 0, 4.0}, source_rtt));
}

TEST(SelectCandidatesTest, NoPeersNoCandidates) {
  net::Topology t;
  t.graph = net::Graph(3);
  t.graph.addEdge(0, 1, 1.0);
  t.graph.addEdge(1, 2, 1.0);
  std::vector<NodeId> parent(3, net::kInvalidNode);
  parent[1] = 0;
  parent[2] = 1;
  t.tree = net::MulticastTree(0, std::move(parent));
  t.source = 0;
  t.clients = {2};
  const net::Routing routing(t.graph);
  EXPECT_TRUE(selectCandidates(2, t.tree, routing, t.clients).empty());
}

TEST(SelectCandidatesTest, IntoVariantMatchesAndReusesBuffers) {
  const Fixture f;
  const net::LcaIndex index(f.topo.tree);
  CandidateScratch scratch;
  std::vector<Candidate> out;
  for (const NodeId u : f.topo.clients) {
    selectCandidatesInto(u, f.topo.tree, index, f.routing, f.topo.clients,
                         scratch, out);
    EXPECT_EQ(out, selectCandidates(u, f.topo.tree, f.routing, f.topo.clients))
        << "client " << u;
  }
}

// Property test on random topologies: at most one candidate per root-path
// router, each candidate is the class RTT minimum, DS strictly descending.
class CandidatesRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CandidatesRandomTest, InvariantsHoldOnRandomTopologies) {
  util::Rng rng(GetParam());
  net::TopologyConfig config;
  config.num_nodes = 60;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);

  for (const NodeId u : topo.clients) {
    const auto classes = competitiveClasses(u, topo.tree, topo.clients);
    const auto candidates =
        selectCandidates(u, topo.tree, routing, topo.clients);
    ASSERT_EQ(classes.size(), candidates.size());

    std::size_t total_peers = 0;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      total_peers += classes[i].peers.size();
      EXPECT_EQ(classes[i].ds, candidates[i].ds);
      // The class router must be an ancestor of u.
      EXPECT_TRUE(topo.tree.isAncestor(classes[i].common_router, u));
      // Candidate is the RTT minimum of its class.
      for (const NodeId p : classes[i].peers) {
        EXPECT_LE(candidates[i].rtt_ms, routing.rtt(u, p) + 1e-12);
      }
      if (i > 0) {
        EXPECT_LT(candidates[i].ds, candidates[i - 1].ds);
      }
    }
    // Classes partition all other clients.
    EXPECT_EQ(total_peers, topo.clients.size() - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidatesRandomTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace rmrn::core
