#include "protocols/rma_protocol.hpp"

#include <gtest/gtest.h>

#include "core/candidates.hpp"
#include "proto_fixture.hpp"

namespace rmrn::protocols {
namespace {

using testutil::ProtoHarness;

struct RmaHarness : ProtoHarness {
  RmaProtocol protocol;

  explicit RmaHarness(double loss_prob = 0.0, std::uint64_t seed = 1,
                      net::Topology topology = testutil::fixtureTopology())
      : ProtoHarness(loss_prob, seed, std::move(topology)),
        protocol(network, metrics, ProtocolConfig{}) {
    protocol.attach();
  }
};

TEST(RmaProtocolTest, SearchOrderIsNearestUpstreamPerLevel) {
  // RMA's upstream levels are exactly the competitive classes in descending
  // DS, each represented by its nearest member.
  const RmaHarness h;
  for (const net::NodeId u : h.topo.clients) {
    EXPECT_EQ(h.protocol.searchOrder(u),
              core::selectCandidates(u, h.topo.tree, h.routing,
                                     h.topo.clients));
  }
  EXPECT_THROW((void)h.protocol.searchOrder(h.topo.source),
               std::out_of_range);
}

TEST(RmaProtocolTest, NoLossNoTraffic) {
  RmaHarness h;
  h.protocol.sourceMulticast(0, h.noLoss());
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 0u);
  EXPECT_EQ(h.protocol.sessionsStarted(), 0u);
  EXPECT_EQ(h.network.stats().recovery_hops, 0u);
}

TEST(RmaProtocolTest, LeafLossServedByNearestUpstream) {
  RmaHarness h;
  // Drop the leaf link into 3: its first search target (sibling 4) holds
  // the packet and multicasts the repair into subtree(2).
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.protocol.sessionsStarted(), 1u);
  EXPECT_EQ(h.protocol.requestsSent(), 1u);
  EXPECT_EQ(h.protocol.repairsMulticast(), 1u);
  EXPECT_TRUE(h.sim.idle());
}

TEST(RmaProtocolTest, WalksPastFellowLosersAfterTimeout) {
  RmaHarness h(0.0, 1, testutil::deepTopology());
  // Drop 1->2: clients 3 and 5 lose.  3's nearest upstream (5) lost too, so
  // 3 times out and moves to the next level (4), which repairs subtree(1)
  // and heals both losers.
  h.protocol.sourceMulticast(0, h.lossInto({2}));
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 2u);
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_TRUE(h.sim.idle());
  // Client 3 issued at least two requests (failed level + repairing level).
  EXPECT_GE(h.protocol.requestsSent(), 2u);
}

TEST(RmaProtocolTest, VisitsEveryLevelUnlikeRp) {
  // RMA is "best-effort, not strategic": on the deep fixture it ALWAYS
  // tries nearest-first (5 before 4), paying a timeout when the near level
  // is loss-correlated — the inefficiency the paper's Fig. 5 shows.
  RmaHarness h(0.0, 1, testutil::deepTopology());
  const auto& order = h.protocol.searchOrder(3);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].peer, 5u);
  EXPECT_EQ(order[1].peer, 4u);
}

TEST(RmaProtocolTest, SourceIsFinalFallback) {
  RmaHarness h;
  // Drop 0->1: everyone loses; every search chain ends at the source, which
  // repairs the whole branch under node 1.
  h.protocol.sourceMulticast(0, h.lossInto({1}));
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 4u);
  EXPECT_TRUE(h.protocol.allRecovered());
}

TEST(RmaProtocolTest, RepairScopeCoversVisitedSubtreeOnly) {
  RmaHarness h;
  // Drop 2->3 only.  The repairer is 4 and the scope is subtree(2): links
  // outside that subtree (e.g. towards 7/8) must carry no repair flood.
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  // Request 3->4 travels 3-2-4 (2 hops); repair floods subtree(2): links
  // 2-4 up, 2-3 down (2 hops).  Nothing crosses the link 1-2 or 1-5.
  EXPECT_EQ(h.network.stats().recovery_hops, 4u);
}

TEST(RmaProtocolTest, OneRepairHealsCoLosers) {
  RmaHarness h;
  // Drop 1->5: both 7 and 8 lose.  Whichever search completes first repairs
  // subtree(1) or subtree(5)... the repair scope includes both losers, so
  // both must be healed.
  h.protocol.sourceMulticast(0, h.lossInto({5}));
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 2u);
  EXPECT_EQ(h.metrics.recoveries(), 2u);
}

TEST(RmaProtocolTest, RecoversUnderLossyRecoveryTraffic) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    RmaHarness h(0.20, seed);
    h.protocol.sourceMulticast(0, h.lossInto({1}));
    h.protocol.sourceMulticast(1, h.lossInto({2, 6}));
    h.sim.run();
    EXPECT_TRUE(h.protocol.allRecovered()) << "seed " << seed;
    EXPECT_TRUE(h.sim.idle());
  }
}

TEST(RmaProtocolTest, TimeoutsRetryLostRequests) {
  // With very lossy recovery links the per-step timeouts must keep retrying
  // (the source level retries in place) until everything is recovered.
  std::uint64_t total_requests = 0;
  std::uint64_t total_losses = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    RmaHarness h(0.35, seed);
    h.protocol.sourceMulticast(0, h.lossInto({1}));
    h.sim.run();
    EXPECT_TRUE(h.protocol.allRecovered()) << "seed " << seed;
    total_requests += h.protocol.requestsSent();
    total_losses += h.metrics.losses();
  }
  // Heavy loss forces strictly more requests than losses overall.
  EXPECT_GT(total_requests, total_losses);
}

TEST(RmaProtocolTest, MultiplePacketsInterleaved) {
  RmaHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.protocol.sourceMulticast(1, h.lossInto({6}));
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 3u);  // 3 on seq 0; 7 and 8 on seq 1
  EXPECT_TRUE(h.protocol.allRecovered());
}

TEST(RmaProtocolTest, ClientWithNoPeersGoesStraightToSource) {
  // Minimal topology: one client only.
  net::Topology t;
  t.graph = net::Graph(3);
  t.graph.addEdge(0, 1, 1.0);
  t.graph.addEdge(1, 2, 1.0);
  std::vector<net::NodeId> parent(3, net::kInvalidNode);
  parent[1] = 0;
  parent[2] = 1;
  t.tree = net::MulticastTree(0, std::move(parent));
  t.source = 0;
  t.clients = {2};
  RmaHarness h(0.0, 1, std::move(t));
  EXPECT_TRUE(h.protocol.searchOrder(2).empty());
  h.protocol.sourceMulticast(0, h.lossInto({2}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
}

}  // namespace
}  // namespace rmrn::protocols
