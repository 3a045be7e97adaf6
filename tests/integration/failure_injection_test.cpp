// Failure injection: crashed receivers must not stall recovery — the
// timeout machinery of every unicast-request scheme routes around them,
// and membership churn (ShardPlanner) lets an operator retire them from the
// plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/shard_planner.hpp"
#include "metrics/recovery_metrics.hpp"
#include "net/routing.hpp"
#include "protocols/rma_protocol.hpp"
#include "protocols/rp_protocol.hpp"
#include "sim/loss_process.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rmrn {
namespace {

struct Rig {
  net::Topology topo;
  net::Routing routing;
  sim::Simulator sim;
  sim::SimNetwork network;
  metrics::RecoveryMetrics metrics;

  explicit Rig(std::uint64_t seed, std::uint32_t n = 60)
      : topo(make(seed, n)),
        routing(topo.graph),
        network(sim, topo, routing, 0.0, sim::lossSeedOf(util::Rng(seed))) {}

  static net::Topology make(std::uint64_t seed, std::uint32_t n) {
    util::Rng rng(seed);
    net::TopologyConfig config;
    config.num_nodes = n;
    return net::generateTopology(config, rng);
  }
};

TEST(FailureInjectionTest, SetAgentFailedValidatesNode) {
  Rig rig(1);
  EXPECT_THROW(rig.network.setAgentFailed(rig.topo.source + 100000, true),
               std::invalid_argument);
  // Routers are not agents.
  for (const net::NodeId v : rig.topo.tree.members()) {
    if (v != rig.topo.source && !rig.topo.isClient(v)) {
      EXPECT_THROW(rig.network.setAgentFailed(v, true),
                   std::invalid_argument);
      break;
    }
  }
  rig.network.setAgentFailed(rig.topo.clients.front(), true);
  EXPECT_TRUE(rig.network.isAgentFailed(rig.topo.clients.front()));
  rig.network.setAgentFailed(rig.topo.clients.front(), false);
  EXPECT_FALSE(rig.network.isAgentFailed(rig.topo.clients.front()));
}

TEST(FailureInjectionTest, RpRoutesAroundCrashedPeer) {
  Rig rig(2);
  core::PlannerOptions options;
  options.per_peer_timeout_factor = 1.5;
  const core::RpPlanner planner(rig.topo, rig.routing, options);
  protocols::RpProtocol protocol(rig.network, rig.metrics,
                                 protocols::ProtocolConfig{}, planner);
  protocol.attach();

  // Find a client whose strategy has at least one peer and crash that peer.
  net::NodeId victim = net::kInvalidNode;
  net::NodeId crashed = net::kInvalidNode;
  for (const net::NodeId u : rig.topo.clients) {
    const auto& peers = planner.strategyFor(u).peers;
    if (!peers.empty()) {
      victim = u;
      crashed = peers.front().peer;
      break;
    }
  }
  ASSERT_NE(victim, net::kInvalidNode);
  rig.network.setAgentFailed(crashed, true);

  // Drop the leaf link into the victim only: its first peer would normally
  // answer, but it is dead; the timeout must advance the session and the
  // recovery must still complete (ultimately from the source if needed).
  sim::LinkLossPattern losses(rig.topo.tree.numMembers(), false);
  losses[rig.topo.tree.memberIndex(victim)] = true;
  protocol.sourceMulticast(0, losses);
  rig.sim.run();
  EXPECT_TRUE(protocol.allRecovered());
  EXPECT_TRUE(protocol.hasPacket(victim, 0));
  EXPECT_GE(protocol.requestsSent(), 2u);  // first request timed out
}

TEST(FailureInjectionTest, RmaRoutesAroundCrashedPeers) {
  Rig rig(3);
  protocols::RmaProtocol protocol(rig.network, rig.metrics,
                                  protocols::ProtocolConfig{});
  protocol.attach();
  // Crash a third of the clients (not all: somebody must stay alive... the
  // source always is).
  for (std::size_t i = 0; i < rig.topo.clients.size(); i += 3) {
    rig.network.setAgentFailed(rig.topo.clients[i], true);
  }
  // Lose a packet for every client.  Crashed receivers register no losses
  // (they run no protocol); every live client must still recover even when
  // its nearest upstream peers are dead.
  sim::LinkLossPattern losses(rig.topo.tree.numMembers(), false);
  for (const net::NodeId child : rig.topo.tree.children(rig.topo.source)) {
    losses[rig.topo.tree.memberIndex(child)] = true;
  }
  protocol.sourceMulticast(0, losses);
  rig.sim.run();
  EXPECT_TRUE(protocol.allRecovered());
  for (const net::NodeId u : rig.topo.clients) {
    if (!rig.network.isAgentFailed(u)) {
      EXPECT_TRUE(protocol.hasPacket(u, 0)) << "client " << u;
    }
  }
  EXPECT_TRUE(rig.sim.idle());
}

TEST(FailureInjectionTest, OperatorRetiresCrashedPeerFromPlans) {
  // Membership churn + exclusion: after removing the crashed client from a
  // one-shard planner, no plan references it, so no timeout detours remain.
  Rig rig(4, 100);
  core::ShardPlannerOptions options;
  options.planner.per_peer_timeout_factor = 1.5;
  options.max_shard_clients = std::numeric_limits<std::uint32_t>::max();
  core::ShardPlanner planner(rig.topo, rig.routing, options);
  const net::NodeId crashed = rig.topo.clients[1];
  planner.removeClient(crashed);
  for (const net::NodeId u : planner.currentClients()) {
    for (const core::Candidate& c : planner.strategyFor(u).peers) {
      EXPECT_NE(c.peer, crashed);
    }
  }
}

}  // namespace
}  // namespace rmrn
