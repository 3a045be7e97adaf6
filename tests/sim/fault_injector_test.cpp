// FaultInjector: seed-deterministic fault schedules and the per-kind agent
// semantics they flip on (crash = fail-stop, stall = respond-never, slow =
// late REQUEST delivery).
#include "sim/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/delivery_fn.hpp"
#include "support/scheduled_calls.hpp"
#include "util/rng.hpp"

namespace rmrn::sim {
namespace {

struct Rig {
  net::Topology topo;
  net::Routing routing;
  Simulator sim;
  SimNetwork network;

  explicit Rig(std::uint64_t seed = 1, std::uint32_t n = 60)
      : topo(make(seed, n)),
        routing(topo.graph),
        network(sim, topo, routing, 0.0, lossSeedOf(util::Rng(seed))) {}

  static net::Topology make(std::uint64_t seed, std::uint32_t n) {
    util::Rng rng(seed);
    net::TopologyConfig config;
    config.num_nodes = n;
    return net::generateTopology(config, rng);
  }
};

TEST(FaultInjectorTest, ScheduleIsSeedDeterministic) {
  Rig rig;
  FaultPlan plan;
  plan.crash_fraction = 0.2;
  plan.stall_fraction = 0.1;
  plan.slow_fraction = 0.1;
  plan.at_ms = 500.0;
  plan.stagger_ms = 10.0;
  plan.seed = 42;

  const FaultInjector a(rig.network, plan);
  const FaultInjector b(rig.network, plan);
  EXPECT_EQ(a.schedule(), b.schedule());

  // A different victim seed reshuffles who gets hit (same counts).
  FaultPlan other = plan;
  other.seed = 43;
  const FaultInjector c(rig.network, other);
  EXPECT_EQ(c.plannedFaults(FaultKind::kCrash),
            a.plannedFaults(FaultKind::kCrash));
  EXPECT_NE(a.schedule(), c.schedule());
}

TEST(FaultInjectorTest, VictimSetsAreDisjointAndSized) {
  Rig rig;
  FaultPlan plan;
  plan.crash_fraction = 0.25;
  plan.stall_fraction = 0.25;
  plan.slow_fraction = 0.25;
  const FaultInjector injector(rig.network, plan);

  const auto k = static_cast<double>(rig.topo.clients.size());
  EXPECT_EQ(injector.plannedFaults(FaultKind::kCrash),
            static_cast<std::size_t>(std::llround(0.25 * k)));
  std::set<net::NodeId> victims;
  for (const FaultEvent& event : injector.schedule()) {
    EXPECT_TRUE(victims.insert(event.node).second)
        << "node " << event.node << " faulted twice";
    EXPECT_TRUE(rig.topo.isClient(event.node));
  }
}

TEST(FaultInjectorTest, StaggerSpacesFaultTimes) {
  Rig rig;
  FaultPlan plan;
  plan.crash_fraction = 0.2;
  plan.at_ms = 100.0;
  plan.stagger_ms = 25.0;
  const FaultInjector injector(rig.network, plan);
  ASSERT_GE(injector.schedule().size(), 2u);
  for (std::size_t i = 0; i < injector.schedule().size(); ++i) {
    EXPECT_DOUBLE_EQ(injector.schedule()[i].at_ms,
                     100.0 + 25.0 * static_cast<double>(i));
  }
}

TEST(FaultInjectorTest, BadPlansRejected) {
  Rig rig;
  FaultPlan negative;
  negative.crash_fraction = -0.1;
  EXPECT_THROW(FaultInjector(rig.network, negative), std::invalid_argument);
  FaultPlan overfull;
  overfull.crash_fraction = 0.7;
  overfull.stall_fraction = 0.7;
  EXPECT_THROW(FaultInjector(rig.network, overfull), std::invalid_argument);
  FaultPlan past;
  past.crash_fraction = 0.1;
  past.at_ms = -1.0;
  EXPECT_THROW(FaultInjector(rig.network, past), std::invalid_argument);
}

TEST(FaultInjectorTest, ArmAppliesFaultsAtScheduledTimes) {
  Rig rig;
  const net::NodeId victim = rig.topo.clients.front();
  FaultInjector injector(
      rig.network, {{200.0, victim, FaultKind::kCrash, 0.0}});
  std::vector<FaultEvent> seen;
  injector.setFaultHandler(
      [&seen](const FaultEvent& event) { seen.push_back(event); });
  injector.arm();
  EXPECT_THROW(injector.arm(), std::logic_error);

  EXPECT_EQ(rig.network.agentFault(victim), AgentFault::kNone);
  rig.sim.run();
  EXPECT_EQ(rig.network.agentFault(victim), AgentFault::kCrashed);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.front().node, victim);
  EXPECT_EQ(seen.front().kind, FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(seen.front().at_ms, 200.0);
}

struct DeliveryCounter {
  std::uint64_t requests = 0;
  std::uint64_t repairs = 0;
  double last_request_at = -1.0;
};

TEST(FaultInjectorTest, FaultKindsGateDeliveriesAsSpecified) {
  Rig rig;
  ASSERT_GE(rig.topo.clients.size(), 3u);
  const net::NodeId crashed = rig.topo.clients[0];
  const net::NodeId stalled = rig.topo.clients[1];
  const net::NodeId slowed = rig.topo.clients[2];
  rig.network.setAgentFault(crashed, AgentFault::kCrashed);
  rig.network.setAgentFault(stalled, AgentFault::kStalled);
  rig.network.setAgentFault(slowed, AgentFault::kSlowed,
                            /*slow_extra_ms=*/500.0);

  std::unordered_map<net::NodeId, DeliveryCounter> seen;
  test_support::DeliveryFn on_deliver(
      [&seen, &rig](net::NodeId at, const Packet& packet) {
        auto& c = seen[at];
        if (packet.type == Packet::Type::kRequest) {
          ++c.requests;
          c.last_request_at = rig.sim.now();
        } else if (packet.type == Packet::Type::kRepair) {
          ++c.repairs;
        }
      });
  rig.network.setDeliverySink(&on_deliver);

  const net::NodeId source = rig.topo.source;
  for (const net::NodeId target : {crashed, stalled, slowed}) {
    rig.network.unicast(source, target,
                        Packet{Packet::Type::kRequest, 0, source, source, 0});
    rig.network.unicast(source, target,
                        Packet{Packet::Type::kRepair, 0, source, source, 0});
  }
  rig.sim.run();

  // Crashed: nothing at all.  Stalled: repairs only.  Slowed: everything,
  // with the REQUEST held back by the extra latency.
  EXPECT_EQ(seen[crashed].requests, 0u);
  EXPECT_EQ(seen[crashed].repairs, 0u);
  EXPECT_EQ(seen[stalled].requests, 0u);
  EXPECT_EQ(seen[stalled].repairs, 1u);
  EXPECT_EQ(seen[slowed].requests, 1u);
  EXPECT_EQ(seen[slowed].repairs, 1u);
  EXPECT_GE(seen[slowed].last_request_at,
            rig.routing.distance(source, slowed) + 500.0);
}

// --- Link-chaos schedules -------------------------------------------------

TEST(FaultInjectorTest, LinkChaosScheduleIsSeedDeterministic) {
  Rig rig;
  FaultPlan plan;
  plan.seed = 7;
  plan.at_ms = 300.0;
  plan.stagger_ms = 10.0;
  plan.link_flap_fraction = 0.2;
  plan.flap_down_ms = 100.0;
  plan.flap_cycles = 2;
  plan.flap_period_ms = 250.0;
  plan.partition_fraction = 0.25;
  plan.partition_heal_ms = 400.0;

  const FaultInjector a(rig.network, plan);
  const FaultInjector b(rig.network, plan);
  EXPECT_EQ(a.schedule(), b.schedule());
  EXPECT_GT(a.plannedFaults(FaultKind::kLinkDown), 0u);
  // Every down has its matching up (flaps cycle, the partition heals).
  EXPECT_EQ(a.plannedFaults(FaultKind::kLinkDown),
            a.plannedFaults(FaultKind::kLinkUp));
}

TEST(FaultInjectorTest, AddingLinkChaosKeepsAgentVictims) {
  // Link victims come from a forked substream: turning link chaos on must
  // not reshuffle who crashes (faulted agent schedules stay bit-identical).
  Rig rig;
  FaultPlan agents_only;
  agents_only.crash_fraction = 0.2;
  agents_only.at_ms = 500.0;
  agents_only.stagger_ms = 10.0;
  agents_only.seed = 42;
  FaultPlan with_links = agents_only;
  with_links.link_flap_fraction = 0.3;
  with_links.flap_down_ms = 200.0;
  with_links.partition_fraction = 0.2;

  const FaultInjector a(rig.network, agents_only);
  const FaultInjector b(rig.network, with_links);
  std::vector<FaultEvent> a_crashes;
  std::vector<FaultEvent> b_crashes;
  for (const FaultEvent& e : a.schedule()) {
    if (e.kind == FaultKind::kCrash) a_crashes.push_back(e);
  }
  for (const FaultEvent& e : b.schedule()) {
    if (e.kind == FaultKind::kCrash) b_crashes.push_back(e);
  }
  EXPECT_EQ(a_crashes, b_crashes);
}

TEST(FaultInjectorTest, SameTimestampFaultsKeepScheduleOrder) {
  // Two faults sharing one at_ms are legal and applied in schedule order:
  // down-then-up at the same instant validates and leaves the link up after
  // the run.
  Rig rig;
  const net::NodeId member = rig.topo.tree.members()[1];
  const net::NodeId parent = rig.topo.tree.parent(member);
  FaultInjector injector(
      rig.network,
      {{200.0, net::kInvalidNode, FaultKind::kLinkDown, 0.0, parent, member},
       {200.0, net::kInvalidNode, FaultKind::kLinkUp, 0.0, parent, member}});
  injector.arm();
  rig.sim.run();
  EXPECT_TRUE(rig.network.isLinkUp(parent, member));
}

TEST(FaultInjectorTest, LinkUpBeforeItsLinkDownRejected) {
  // An up for a link that is not down has no unambiguous timeline: rejected
  // at construction, not silently reordered.
  Rig rig;
  const net::NodeId member = rig.topo.tree.members()[1];
  const net::NodeId parent = rig.topo.tree.parent(member);
  EXPECT_THROW(
      FaultInjector(
          rig.network,
          {{100.0, net::kInvalidNode, FaultKind::kLinkUp, 0.0, parent, member},
           {200.0, net::kInvalidNode, FaultKind::kLinkDown, 0.0, parent,
            member}}),
      std::invalid_argument);
  // Same at_ms but up listed before down: schedule order breaks the tie, so
  // this too is an up for a link that was never down.
  EXPECT_THROW(
      FaultInjector(
          rig.network,
          {{200.0, net::kInvalidNode, FaultKind::kLinkUp, 0.0, parent, member},
           {200.0, net::kInvalidNode, FaultKind::kLinkDown, 0.0, parent,
            member}}),
      std::invalid_argument);
}

TEST(FaultInjectorTest, DoubleLinkDownRejected) {
  Rig rig;
  const net::NodeId member = rig.topo.tree.members()[1];
  const net::NodeId parent = rig.topo.tree.parent(member);
  EXPECT_THROW(
      FaultInjector(
          rig.network,
          {{100.0, net::kInvalidNode, FaultKind::kLinkDown, 0.0, parent,
            member},
           {200.0, net::kInvalidNode, FaultKind::kLinkDown, 0.0, parent,
            member}}),
      std::invalid_argument);
}

TEST(FaultInjectorTest, LinkFaultOnUnknownEdgeRejected) {
  Rig rig;
  // Two nodes with no direct graph edge (a leaf and the far leaf's id).
  const net::NodeId member = rig.topo.tree.members()[1];
  EXPECT_THROW(
      FaultInjector(rig.network, {{100.0, net::kInvalidNode,
                                   FaultKind::kLinkDown, 0.0, member, member}}),
      std::invalid_argument);
}

TEST(FaultInjectorTest, BadLinkPlansRejected) {
  Rig rig;
  FaultPlan dup;
  dup.duplicate_prob = 1.0;  // must stay < 1 or copies explode
  EXPECT_THROW(FaultInjector(rig.network, dup), std::invalid_argument);
  FaultPlan jitter;
  jitter.reorder_jitter_ms = -2.0;
  EXPECT_THROW(FaultInjector(rig.network, jitter), std::invalid_argument);
  FaultPlan overlapping;
  overlapping.link_flap_fraction = 0.2;
  overlapping.flap_down_ms = 300.0;
  overlapping.flap_cycles = 2;
  overlapping.flap_period_ms = 200.0;  // next cycle starts while still down
  EXPECT_THROW(FaultInjector(rig.network, overlapping), std::invalid_argument);
}

TEST(FaultInjectorTest, PartitionCutsAndHealRestoresReachability) {
  Rig rig;
  FaultPlan plan;
  plan.at_ms = 100.0;
  plan.partition_fraction = 0.25;
  plan.partition_heal_ms = 400.0;
  FaultInjector injector(rig.network, plan);
  ASSERT_GT(injector.plannedFaults(FaultKind::kLinkDown), 0u);

  bool someone_cut = false;
  test_support::ScheduledCalls calls(rig.sim);
  calls.at(250.0, [&rig, &someone_cut] {
    for (const net::NodeId client : rig.topo.clients) {
      if (!rig.network.reachableFromSource(client, rig.sim.now())) {
        someone_cut = true;
      }
    }
  });
  injector.arm();
  rig.sim.run();
  EXPECT_TRUE(someone_cut);
  // Healed: every client reachable again at end of run.
  for (const net::NodeId client : rig.topo.clients) {
    EXPECT_TRUE(rig.network.reachableFromSource(client, rig.sim.now()))
        << client;
  }
}

TEST(FaultInjectorTest, CrashWhileSlowedDeliveryInFlightDropsIt) {
  // A slowed REQUEST already queued for late delivery must still be dropped
  // when the agent crashes before the delayed delivery fires.
  Rig rig;
  const net::NodeId victim = rig.topo.clients.front();
  rig.network.setAgentFault(victim, AgentFault::kSlowed,
                            /*slow_extra_ms=*/1000.0);
  std::uint64_t delivered = 0;
  test_support::DeliveryFn on_deliver(
      [&delivered, victim](net::NodeId at, const Packet& packet) {
        if (at == victim && packet.type == Packet::Type::kRequest) {
          ++delivered;
        }
      });
  rig.network.setDeliverySink(&on_deliver);
  const net::NodeId source = rig.topo.source;
  rig.network.unicast(source, victim,
                      Packet{Packet::Type::kRequest, 0, source, source, 0});
  // Crash strictly between arrival and the delayed delivery.
  test_support::ScheduledCalls calls(rig.sim);
  calls.at(rig.routing.distance(source, victim) + 500.0, [&rig, victim] {
    rig.network.setAgentFault(victim, AgentFault::kCrashed);
  });
  rig.sim.run();
  EXPECT_EQ(delivered, 0u);
}

}  // namespace
}  // namespace rmrn::sim
