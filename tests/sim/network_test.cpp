#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "support/delivery_fn.hpp"

namespace rmrn::sim {
namespace {

using net::NodeId;

// Fixture topology:
//
//        0 (source)
//   1ms / \ 2ms
//      1   2
// 1ms /     \ 3ms
//    3       4        plus a direct graph edge 3--4 (10ms, not a tree link)
//
// Tree = {0-1, 0-2, 1-3, 2-4}; clients = {3, 4}.
net::Topology fixtureTopology() {
  net::Topology topo;
  topo.graph = net::Graph(5);
  topo.graph.addEdge(0, 1, 1.0);
  topo.graph.addEdge(0, 2, 2.0);
  topo.graph.addEdge(1, 3, 1.0);
  topo.graph.addEdge(2, 4, 3.0);
  topo.graph.addEdge(3, 4, 10.0);
  std::vector<NodeId> parent(5, net::kInvalidNode);
  parent[1] = 0;
  parent[2] = 0;
  parent[3] = 1;
  parent[4] = 2;
  topo.tree = net::MulticastTree(0, std::move(parent));
  topo.source = 0;
  topo.clients = {3, 4};
  return topo;
}

struct Delivery {
  NodeId at;
  Packet::Type type;
  std::uint64_t seq;
  double time;
};

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture()
      : topo_(fixtureTopology()),
        routing_(topo_.graph),
        network_(sim_, topo_, routing_, /*loss_prob=*/0.0,
                 lossSeedOf(util::Rng(1))) {
    network_.setDeliverySink(&on_deliver_);
  }

  static Packet request(std::uint64_t seq, NodeId origin) {
    return Packet{Packet::Type::kRequest, seq, origin, origin, 0};
  }

  net::Topology topo_;
  net::Routing routing_;
  Simulator sim_;
  SimNetwork network_;
  std::vector<Delivery> deliveries_;
  test_support::DeliveryFn on_deliver_{[this](NodeId at, const Packet& p) {
    deliveries_.push_back({at, p.type, p.seq, sim_.now()});
  }};
};

TEST_F(NetworkFixture, UnicastFollowsShortestPath) {
  // 3 -> 4 shortest is 3-1-0-2-4 (7ms), beating the direct 10ms edge.
  network_.unicast(3, 4, request(7, 3));
  sim_.run();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 4u);
  EXPECT_EQ(deliveries_[0].seq, 7u);
  EXPECT_DOUBLE_EQ(deliveries_[0].time, 7.0);
  EXPECT_EQ(network_.stats().recovery_hops, 4u);
  EXPECT_EQ(network_.stats().packets_sent, 1u);
}

TEST_F(NetworkFixture, UnicastToSelfDelivers) {
  network_.unicast(3, 3, request(1, 3));
  sim_.run();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 3u);
  EXPECT_EQ(network_.stats().recovery_hops, 0u);
}

TEST_F(NetworkFixture, UnicastNotDeliveredAtIntermediateAgents) {
  // 3 -> 4 passes through the source (an agent) but must not deliver there.
  network_.unicast(3, 4, request(1, 3));
  sim_.run();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 4u);
}

TEST_F(NetworkFixture, MulticastFromSourceReachesAllClients) {
  network_.multicastFromSource(Packet{Packet::Type::kData, 3, 0,
                                      net::kInvalidNode, 0});
  sim_.run();
  ASSERT_EQ(deliveries_.size(), 2u);
  // Client 3 via 0-1-3 (2ms); client 4 via 0-2-4 (5ms).
  EXPECT_EQ(deliveries_[0].at, 3u);
  EXPECT_DOUBLE_EQ(deliveries_[0].time, 2.0);
  EXPECT_EQ(deliveries_[1].at, 4u);
  EXPECT_DOUBLE_EQ(deliveries_[1].time, 5.0);
  EXPECT_EQ(network_.stats().data_hops, 4u);
  EXPECT_EQ(network_.stats().recovery_hops, 0u);
}

TEST_F(NetworkFixture, ForcedLossCutsSubtree) {
  // Drop the link 0->1: client 3 must not receive, client 4 must.
  LinkLossPattern losses(topo_.tree.numMembers(), false);
  losses[topo_.tree.memberIndex(1)] = true;
  network_.multicastFromSource(
      Packet{Packet::Type::kData, 0, 0, net::kInvalidNode, 0}, &losses);
  sim_.run();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 4u);
  // Hops: 0->1 attempted (lost), 0->2, 2->4; 1->3 never attempted.
  EXPECT_EQ(network_.stats().data_hops, 3u);
  EXPECT_EQ(network_.stats().packets_lost, 1u);
}

TEST_F(NetworkFixture, ForcedLossAtLeafOnly) {
  LinkLossPattern losses(topo_.tree.numMembers(), false);
  losses[topo_.tree.memberIndex(4)] = true;
  network_.multicastFromSource(
      Packet{Packet::Type::kData, 0, 0, net::kInvalidNode, 0}, &losses);
  sim_.run();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 3u);
  EXPECT_EQ(network_.stats().data_hops, 4u);  // all links attempted
}

TEST_F(NetworkFixture, ForcedLossPatternSizeValidated) {
  LinkLossPattern wrong(2, false);
  EXPECT_THROW(network_.multicastFromSource(
                   Packet{Packet::Type::kData, 0, 0, net::kInvalidNode, 0},
                   &wrong),
               std::invalid_argument);
}

TEST_F(NetworkFixture, GroupMulticastFloodsWholeTree) {
  network_.multicastGroup(3, request(9, 3));
  sim_.run();
  // Delivered at source (t=2), and client 4 (t=7); not at routers, not at 3.
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(deliveries_[0].at, 0u);
  EXPECT_DOUBLE_EQ(deliveries_[0].time, 2.0);
  EXPECT_EQ(deliveries_[1].at, 4u);
  EXPECT_DOUBLE_EQ(deliveries_[1].time, 7.0);
  // Every tree link crossed exactly once.
  EXPECT_EQ(network_.stats().recovery_hops, 4u);
}

TEST_F(NetworkFixture, SubtreeMulticastStaysInScope) {
  // Flood from 4 bounded by subtree root 2: only link 2-4 is used; nothing
  // escapes to the source side.
  network_.multicastSubtree(2, 4, request(1, 4));
  sim_.run();
  EXPECT_TRUE(deliveries_.empty());  // 2 is a router, no agents in scope
  EXPECT_EQ(network_.stats().recovery_hops, 1u);
}

TEST_F(NetworkFixture, SubtreeMulticastWholeTreeScopeEqualsGroup) {
  network_.multicastSubtree(0, 3, request(1, 3));
  sim_.run();
  EXPECT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(network_.stats().recovery_hops, 4u);
}

TEST_F(NetworkFixture, SubtreeMulticastRejectsSenderOutsideScope) {
  EXPECT_THROW(network_.multicastSubtree(2, 3, request(1, 3)),
               std::invalid_argument);
}

TEST_F(NetworkFixture, MulticastDownIntoBranch) {
  // Source repairs into the branch rooted at 2: client 4 gets it, 3 not.
  network_.multicastDownInto(2, Packet{Packet::Type::kRepair, 5, 0, 4, 0});
  sim_.run();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 4u);
  EXPECT_DOUBLE_EQ(deliveries_[0].time, 5.0);
  EXPECT_EQ(network_.stats().recovery_hops, 2u);
}

TEST_F(NetworkFixture, MulticastDownIntoRootIsFullMulticast) {
  network_.multicastDownInto(0, Packet{Packet::Type::kRepair, 5, 0, 4, 0});
  sim_.run();
  EXPECT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(network_.stats().recovery_hops, 4u);
}

TEST_F(NetworkFixture, TreeArrivalDelays) {
  EXPECT_DOUBLE_EQ(network_.treeArrivalDelay(0), 0.0);
  EXPECT_DOUBLE_EQ(network_.treeArrivalDelay(1), 1.0);
  EXPECT_DOUBLE_EQ(network_.treeArrivalDelay(3), 2.0);
  EXPECT_DOUBLE_EQ(network_.treeArrivalDelay(4), 5.0);
}

TEST_F(NetworkFixture, PerAgentDeliveryCountsByType) {
  network_.unicast(3, 0, request(1, 3));
  network_.unicast(4, 0, request(1, 4));
  network_.unicast(0, 3, Packet{Packet::Type::kRepair, 1, 0, 3, 0});
  sim_.run();
  EXPECT_EQ(network_.deliveriesAt(0, Packet::Type::kRequest), 2u);
  EXPECT_EQ(network_.deliveriesAt(3, Packet::Type::kRepair), 1u);
  EXPECT_EQ(network_.deliveriesAt(3, Packet::Type::kRequest), 0u);
  EXPECT_EQ(network_.deliveriesAt(4, Packet::Type::kData), 0u);
}

TEST_F(NetworkFixture, LinkAccountingTracksRecoveryTraversals) {
  // 3 -> 4 unicast uses links 3-1, 1-0, 0-2, 2-4 once each.
  network_.unicast(3, 4, request(1, 3));
  sim_.run();
  EXPECT_EQ(network_.totalRecoveryLinkLoad(), 4u);
  EXPECT_EQ(network_.recoveryLinkLoad(1, 3), 1u);
  EXPECT_EQ(network_.recoveryLinkLoad(0, 1), 1u);
  EXPECT_EQ(network_.recoveryLinkLoad(3, 4), 0u);  // direct edge unused
  // Both orientations address the same undirected counter.
  EXPECT_EQ(network_.recoveryLinkLoad(3, 1), 1u);
  EXPECT_EQ(network_.maxRecoveryLinkLoad(), 1u);
  // Asking about a non-edge is an error, not a zero.
  EXPECT_THROW((void)network_.recoveryLinkLoad(0, 4), std::invalid_argument);
  // Second identical unicast doubles the per-link counts.
  network_.unicast(3, 4, request(2, 3));
  sim_.run();
  EXPECT_EQ(network_.maxRecoveryLinkLoad(), 2u);
}

TEST_F(NetworkFixture, LinkAccountingIgnoresDataAndDefaultsOff) {
  // Recovery link loads are always counted, data traversals never.
  network_.multicastFromSource(Packet{Packet::Type::kData, 0, 0,
                                      net::kInvalidNode, 0});
  sim_.run();
  EXPECT_GT(network_.stats().data_hops, 0u);
  EXPECT_EQ(network_.totalRecoveryLinkLoad(), 0u);  // data never counted
}

TEST_F(NetworkFixture, ResetStatsClearsCounters) {
  network_.unicast(3, 4, request(1, 3));
  sim_.run();
  EXPECT_GT(network_.stats().recovery_hops, 0u);
  EXPECT_GT(network_.totalRecoveryLinkLoad(), 0u);
  network_.resetStats();
  EXPECT_EQ(network_.stats().recovery_hops, 0u);
  EXPECT_EQ(network_.stats().packets_sent, 0u);
  EXPECT_EQ(network_.stats().deliveries, 0u);
  EXPECT_EQ(network_.deliveriesAt(4, Packet::Type::kRequest), 0u);
  EXPECT_EQ(network_.totalRecoveryLinkLoad(), 0u);
}

TEST_F(NetworkFixture, DeliveriesAtReadableBeforeAnyDelivery) {
  // The per-type delivery table is sized at construction: querying any
  // agent/type before the first delivery (and after resetStats) is a
  // well-defined zero, never a read past an empty vector.
  for (const NodeId v : {0u, 1u, 2u, 3u, 4u}) {
    EXPECT_EQ(network_.deliveriesAt(v, Packet::Type::kData), 0u);
    EXPECT_EQ(network_.deliveriesAt(v, Packet::Type::kRequest), 0u);
    EXPECT_EQ(network_.deliveriesAt(v, Packet::Type::kRepair), 0u);
    EXPECT_EQ(network_.deliveriesAt(v, Packet::Type::kParity), 0u);
  }
  // Out-of-range nodes still answer zero rather than throwing.
  EXPECT_EQ(network_.deliveriesAt(999, Packet::Type::kData), 0u);
  network_.resetStats();
  EXPECT_EQ(network_.deliveriesAt(4, Packet::Type::kData), 0u);
}

// Property: with loss off, a group multicast from any member delivers to
// every OTHER agent exactly once, and a source multicast to every client
// exactly once, on random topologies.
class FloodPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FloodPropertyTest, GroupFloodDeliversExactlyOnceToEveryAgent) {
  util::Rng rng(GetParam());
  net::TopologyConfig config;
  config.num_nodes = 50;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);
  Simulator sim;
  SimNetwork network(sim, topo, routing, 0.0, lossSeedOf(util::Rng(1)));
  std::map<NodeId, int> received;
  test_support::DeliveryFn on_deliver(
      [&](NodeId at, const Packet&) { ++received[at]; });
  network.setDeliverySink(&on_deliver);

  const NodeId from = topo.clients.front();
  network.multicastGroup(from, Packet{Packet::Type::kRequest, 0, from, from,
                                      0});
  sim.run();
  EXPECT_EQ(received.size(), topo.clients.size());  // all clients + source,
                                                    // minus the sender
  EXPECT_FALSE(received.contains(from));
  EXPECT_EQ(received[topo.source], 1);
  for (const auto& [node, count] : received) EXPECT_EQ(count, 1);
  // Every tree link crossed exactly once.
  EXPECT_EQ(network.stats().recovery_hops, topo.tree.numLinks());
}

TEST_P(FloodPropertyTest, SourceMulticastDeliversToEveryClientOnce) {
  util::Rng rng(GetParam() + 500);
  net::TopologyConfig config;
  config.num_nodes = 50;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);
  Simulator sim;
  SimNetwork network(sim, topo, routing, 0.0, lossSeedOf(util::Rng(1)));
  std::map<NodeId, int> received;
  test_support::DeliveryFn on_deliver(
      [&](NodeId at, const Packet&) { ++received[at]; });
  network.setDeliverySink(&on_deliver);
  network.multicastFromSource(
      Packet{Packet::Type::kData, 0, topo.source, net::kInvalidNode, 0});
  sim.run();
  EXPECT_EQ(received.size(), topo.clients.size());
  for (const NodeId c : topo.clients) EXPECT_EQ(received[c], 1);
  EXPECT_EQ(network.stats().data_hops, topo.tree.numLinks());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloodPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(NetworkLossTest, LossRateMatchesProbability) {
  // Single-hop unicasts 0 -> 1 with p = 0.3; empirical delivery rate ~0.7.
  net::Topology topo;
  topo.graph = net::Graph(3);
  topo.graph.addEdge(0, 1, 1.0);
  topo.graph.addEdge(0, 2, 1.0);
  std::vector<NodeId> parent(3, net::kInvalidNode);
  parent[1] = 0;
  parent[2] = 0;
  topo.tree = net::MulticastTree(0, std::move(parent));
  topo.source = 0;
  topo.clients = {1, 2};

  net::Routing routing(topo.graph);
  Simulator sim;
  SimNetwork network(sim, topo, routing, 0.3, lossSeedOf(util::Rng(42)));
  int delivered = 0;
  test_support::DeliveryFn on_deliver(
      [&](NodeId, const Packet&) { ++delivered; });
  network.setDeliverySink(&on_deliver);
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    network.unicast(0, 1,
                    Packet{Packet::Type::kRepair, 0, 0, 1, 0});
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kN, 0.7, 0.02);
  EXPECT_EQ(network.stats().packets_lost,
            static_cast<std::uint64_t>(kN - delivered));
}

TEST(NetworkLossTest, InvalidLossProbabilityRejected) {
  net::Topology topo = fixtureTopology();
  net::Routing routing(topo.graph);
  Simulator sim;
  EXPECT_THROW(SimNetwork(sim, topo, routing, -0.1, lossSeedOf(util::Rng(1))),
               std::invalid_argument);
  EXPECT_THROW(SimNetwork(sim, topo, routing, 1.0, lossSeedOf(util::Rng(1))),
               std::invalid_argument);
}

TEST(NetworkLossTest, DeterministicAcrossRunsWithSameSeed) {
  for (int pass = 0; pass < 2; ++pass) {
    net::Topology topo = fixtureTopology();
    net::Routing routing(topo.graph);
    Simulator sim;
    SimNetwork network(sim, topo, routing, 0.25, lossSeedOf(util::Rng(7)));
    static std::vector<double> first_times;
    std::vector<double> times;
    test_support::DeliveryFn on_deliver(
        [&](NodeId, const Packet&) { times.push_back(sim.now()); });
    network.setDeliverySink(&on_deliver);
    for (int i = 0; i < 200; ++i) {
      network.unicast(3, 4, Packet{Packet::Type::kRepair, 0, 3, 4, 0});
    }
    sim.run();
    if (pass == 0) {
      first_times = times;
    } else {
      EXPECT_EQ(times, first_times);
    }
  }
}

}  // namespace
}  // namespace rmrn::sim
