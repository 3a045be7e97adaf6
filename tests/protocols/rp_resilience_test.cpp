// RP fault tolerance (DESIGN.md §9): the timer-leak regression on duplicate
// loss detections, the subgroup root-walk guard, blacklist-driven failover
// replanning, crash abandonment, and the bounded retry budget.
#include <gtest/gtest.h>

#include "proto_fixture.hpp"
#include "support/scheduled_calls.hpp"
#include "protocols/rp_protocol.hpp"
#include "util/check.hpp"

namespace rmrn::protocols {
namespace {

using testutil::ProtoHarness;

// Entry points are protected on RpProtocol so tests can drive them directly.
struct OpenRp : RpProtocol {
  using RpProtocol::RpProtocol;
  using RpProtocol::onLossDetected;
  using RpProtocol::onRequest;
};

struct OpenRpHarness : ProtoHarness {
  core::RpPlanner planner;
  OpenRp protocol;

  explicit OpenRpHarness(ProtocolConfig config = {},
                         SourceRecoveryMode mode = SourceRecoveryMode::kUnicast,
                         net::Topology topology = testutil::fixtureTopology(),
                         core::PlannerOptions planner_options = {})
      : ProtoHarness(0.0, 1, std::move(topology)),
        planner(topo, routing, planner_options),
        protocol(network, metrics, config, planner, mode) {
    protocol.attach();
  }
};

// Straight chain where client 1 sits directly under the source, so a
// subgroup repair for it performs zero root-walk iterations:
//
//   0 (source) --5-- 1 (client) --1-- 2 (client)
net::Topology chainTopology() {
  net::Topology t;
  t.graph = net::Graph(3);
  t.graph.addEdge(0, 1, 5.0);
  t.graph.addEdge(1, 2, 1.0);
  std::vector<net::NodeId> parent(3, net::kInvalidNode);
  parent[1] = 0;
  parent[2] = 1;
  t.tree = net::MulticastTree(0, std::move(parent));
  t.source = 0;
  t.clients = {1, 2};
  return t;
}

TEST(RpResilienceTest, DuplicateLossDetectionDoesNotLeakTimer) {
  // Regression: a second onLossDetected for a live session used to replace
  // the session record, orphaning its armed timer; the stale timer then
  // fired against the fresh session and double-advanced the peer walk.
  // Reference run without the duplicate:
  std::uint64_t clean_requests = 0;
  {
    OpenRpHarness h;
    h.protocol.sourceMulticast(0, h.lossInto({1}));
    h.sim.run();
    ASSERT_TRUE(h.protocol.allRecovered());
    clean_requests = h.protocol.requestsSent();
  }

  OpenRpHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({1}));
  // Client 3 detects at arrival + detection delay; fire the duplicate 1ms
  // later, squarely inside the live session (its first timeout is >= 15ms).
  const double duplicate_at = h.network.treeArrivalDelay(3) +
                              ProtocolConfig{}.detection_delay_ms + 1.0;
  test_support::ScheduledCalls calls(h.sim);
  calls.at(duplicate_at, [&h] { h.protocol.onLossDetected(3, 0); });
  h.sim.run();

  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.recoveries(), 4u);
  EXPECT_EQ(h.protocol.requestsSent(), clean_requests);
  EXPECT_EQ(h.sim.pendingEvents(), 0u);
}

TEST(RpResilienceTest, SubgroupRepairServesDepthOneRequester) {
  // A depth-1 requester is its own branch root: the root walk runs zero
  // iterations and the repair multicasts into the requester's own subtree.
  OpenRpHarness h({}, SourceRecoveryMode::kSubgroupMulticast,
                  chainTopology());
  // Dropping the link into client 1 cuts off client 2 as well.
  h.protocol.sourceMulticast(0, h.lossInto({1}));
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 2u);
  EXPECT_EQ(h.metrics.recoveries(), 2u);
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_TRUE(h.protocol.hasPacket(1, 0));
  EXPECT_TRUE(h.protocol.hasPacket(2, 0));
}

#if RMRN_CHECKS_ENABLED
TEST(RpResilienceTest, SubgroupRepairRejectsSourceRequester) {
  // The root walk is undefined for the source itself: it would climb past
  // the root.  Checked builds must refuse instead of walking off the tree.
  OpenRpHarness h({}, SourceRecoveryMode::kSubgroupMulticast);
  h.protocol.sourceMulticast(0, h.noLoss());
  h.sim.run();
  const sim::Packet bogus{sim::Packet::Type::kRequest, 0, /*origin=*/0,
                          /*requester=*/0, /*tag=*/0};
  EXPECT_THROW(h.protocol.onRequest(0, bogus), util::ContractViolation);
}
#endif  // RMRN_CHECKS_ENABLED

TEST(RpResilienceTest, BlacklistTriggersFailoverReplan) {
  ProtocolConfig config;
  config.health.enabled = true;
  config.health.blacklist_after = 1;  // first timeout writes the peer off
  // Deep fixture with t_0 = 12: client 3's optimal list is exactly [4]
  // (see RpProtocolTest.StrategicPeerSelectionOnDeepTopology).
  core::PlannerOptions planner_options;
  planner_options.timeout_ms = 12.0;
  OpenRpHarness h(config, SourceRecoveryMode::kUnicast,
                  testutil::deepTopology(), planner_options);

  const net::NodeId victim = 3;
  ASSERT_EQ(h.planner.strategyFor(victim).peers.size(), 1u);
  const net::NodeId dead = h.planner.strategyFor(victim).peers.front().peer;
  ASSERT_EQ(dead, 4u);
  h.network.setAgentFault(dead, sim::AgentFault::kCrashed);

  h.protocol.sourceMulticast(0, h.lossInto({victim}));
  h.sim.run();

  // The request to the dead peer timed out once, blacklisted it, and the
  // failover replan took over; recovery still completed.
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.timeouts(), 1u);
  EXPECT_EQ(h.metrics.timeoutsFor(dead), 1u);
  EXPECT_EQ(h.metrics.blacklistEvents(), 1u);
  EXPECT_EQ(h.metrics.failovers(), 1u);
  ASSERT_TRUE(h.protocol.hasFailedOver(victim));
  for (const core::Candidate& peer : h.protocol.activeStrategy(victim).peers) {
    EXPECT_NE(peer.peer, dead);
  }

  // Subsequent losses start on the pruned list: no further timeouts.
  h.protocol.sourceMulticast(1, h.lossInto({victim}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.timeouts(), 1u);
}

TEST(RpResilienceTest, CrashedClientAbandonsOutstandingLoss) {
  OpenRpHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({1}));  // all four clients lose
  // Crash client 3 shortly after its session opened — both halves of what
  // the fault injector does: fail the agent (in-flight repairs to it drop)
  // and notify the protocol (session torn down, loss written off).
  const double crash_at = h.network.treeArrivalDelay(3) +
                          ProtocolConfig{}.detection_delay_ms + 1.0;
  test_support::ScheduledCalls calls(h.sim);
  calls.at(crash_at, [&h] {
    h.network.setAgentFault(3, sim::AgentFault::kCrashed);
    h.protocol.clientCrashed(3);
  });
  h.sim.run();

  // The crashed client's loss is written off (no obligation survives the
  // crash) and its session's timer is gone; the survivors all recover.
  EXPECT_EQ(h.metrics.losses(), 4u);
  EXPECT_EQ(h.metrics.recoveries(), 3u);
  EXPECT_EQ(h.metrics.abandoned(), 1u);
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_FALSE(h.protocol.hasPacket(3, 0));
  EXPECT_EQ(h.sim.pendingEvents(), 0u);
}

TEST(RpResilienceTest, RetryBudgetBoundsDoomedSession) {
  ProtocolConfig config;
  config.health.enabled = true;
  config.health.retry_budget = 3;
  config.health.blacklist_after = 0;  // isolate the budget from blacklisting
  OpenRpHarness h(config);

  // Fabricate a session for a packet nobody (not even the source) holds:
  // every request times out, and without a budget the walk would retry the
  // source forever.
  h.protocol.onLossDetected(3, 0);
  h.sim.run();

  EXPECT_EQ(h.protocol.requestsSent(), 3u);
  EXPECT_EQ(h.metrics.timeouts(), 3u);
  EXPECT_EQ(h.metrics.retries(), 2u);
  EXPECT_EQ(h.metrics.sourceFallbacks(), 1u);
  EXPECT_EQ(h.sim.pendingEvents(), 0u);
}

TEST(RpResilienceTest, HealthEnabledPreservesExactCountsWithoutFaults) {
  // Behavioural compatibility: with no samples and no timeouts the adaptive
  // RTO equals the legacy static timeout, so enabling health must not change
  // a fault-free run at all — including the exact request counts the legacy
  // tests pin down.
  ProtocolConfig config;
  config.health.enabled = true;
  {
    OpenRpHarness h(config);
    h.protocol.sourceMulticast(0, h.lossInto({3}));
    h.sim.run();
    EXPECT_TRUE(h.protocol.allRecovered());
    EXPECT_EQ(h.protocol.requestsSent(), 1u);
  }
  OpenRpHarness h(config);
  h.protocol.sourceMulticast(0, h.lossInto({1}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  std::uint64_t expected_requests = 0;
  for (const net::NodeId c : h.topo.clients) {
    expected_requests += h.planner.strategyFor(c).peers.size() + 1;
  }
  EXPECT_EQ(h.protocol.requestsSent(), expected_requests);
  EXPECT_EQ(h.metrics.timeouts(),
            expected_requests - h.topo.clients.size());
}

}  // namespace
}  // namespace rmrn::protocols
