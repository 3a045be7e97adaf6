// Link-level chaos in SimNetwork (DESIGN.md §9 link-fault taxonomy): down
// links eat packets (counted, not re-queued) while their staged timeline
// says so, duplication injects extra copies by keyed draws, reorder jitter
// stretches but never loses traffic, and reachableFromSource reports the
// state both the unicast and the multicast repair path depend on.
#include <gtest/gtest.h>

#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/delivery_fn.hpp"
#include "support/scheduled_calls.hpp"
#include "util/check.hpp"
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

  /// First hop of the source -> client unicast route.
  [[nodiscard]] net::NodeId firstHopTo(net::NodeId client) const {
    std::vector<net::NodeId> route;
    routing.pathInto(topo.source, client, route);
    return route.at(1);
  }
};

Packet request(net::NodeId origin) {
  return Packet{Packet::Type::kRequest, 0, origin, origin, 0};
}

TEST(ChaosNetworkTest, ChaosOffByDefaultAndSettersFlipItOn) {
  Rig rig;
  EXPECT_FALSE(rig.network.chaosEnabled());
  const net::NodeId client = rig.topo.clients.front();
  const net::NodeId hop = rig.firstHopTo(client);
  EXPECT_TRUE(rig.network.isLinkUp(rig.topo.source, hop));
  rig.network.stageLinkState(rig.topo.source, hop, 0.0, false);
  EXPECT_TRUE(rig.network.chaosEnabled());
  EXPECT_FALSE(rig.network.isLinkUp(rig.topo.source, hop));
}

TEST(ChaosNetworkTest, DownLinkDropsUnicastAndCountsIt) {
  Rig rig;
  const net::NodeId client = rig.topo.clients.front();
  const net::NodeId hop = rig.firstHopTo(client);
  std::uint64_t delivered = 0;
  test_support::DeliveryFn on_deliver(
      [&delivered](net::NodeId, const Packet&) { ++delivered; });
  rig.network.setDeliverySink(&on_deliver);

  // Down from t = 0 to t = 10, then up again (state, not a latch).
  rig.network.stageLinkState(rig.topo.source, hop, 0.0, false);
  rig.network.stageLinkState(rig.topo.source, hop, 10.0, true);
  test_support::ScheduledCalls calls(rig.sim);
  const auto send = [&rig, client] {
    rig.network.unicast(rig.topo.source, client, request(rig.topo.source));
  };
  calls.at(5.0, send);
  calls.at(20.0, send);
  rig.sim.run(15.0);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(rig.network.stats().chaos_link_drops, 1u);
  rig.sim.run();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(rig.network.stats().chaos_link_drops, 1u);
}

TEST(ChaosNetworkTest, DuplicationInjectsExtraCopiesDeterministically) {
  const auto countDeliveries = [](std::uint64_t seed) {
    Rig rig(seed);
    rig.network.setAllLinksDuplicationProb(0.4);
    std::uint64_t delivered = 0;
    test_support::DeliveryFn on_deliver(
        [&delivered](net::NodeId, const Packet&) { ++delivered; });
    rig.network.setDeliverySink(&on_deliver);
    for (int i = 0; i < 50; ++i) {
      rig.network.unicast(rig.topo.source, rig.topo.clients.back(),
                          request(rig.topo.source));
    }
    rig.sim.run();
    EXPECT_GT(rig.network.stats().duplicates_created, 0u);
    // Copies multiply along the route, so deliveries exceed the sends.
    EXPECT_GT(delivered, 50u);
    return delivered;
  };
  // Same seed -> bit-identical chaos draws; different seed -> a different
  // (but equally deterministic) duplication pattern.
  EXPECT_EQ(countDeliveries(3), countDeliveries(3));
}

TEST(ChaosNetworkTest, CopiesOfAForcedPatternFloodKeepItsLosses) {
  // A duplicate of a data flood re-floods the subtree below its link; the
  // forced pattern still decides its losses, so nothing is delivered below
  // a link the pattern marks lost, however many copies cross above it.
  Rig rig(7, 120);
  const auto& tree = rig.topo.tree;
  LinkLossPattern pattern(tree.numMembers(), false);
  std::vector<bool> cut(rig.topo.graph.numNodes(), false);
  for (const net::NodeId v : tree.members()) {
    if (v == tree.root()) continue;
    const net::NodeId parent = tree.parent(v);
    if (cut[parent]) {
      cut[v] = true;  // below a lost link (members come in preorder)
    } else if (tree.memberIndex(v) % 5 == 0) {
      pattern[tree.memberIndex(v)] = true;
      cut[v] = true;
    }
  }
  std::uint64_t below_lost = 0;
  std::uint64_t delivered = 0;
  test_support::DeliveryFn on_deliver([&](net::NodeId at, const Packet&) {
    ++delivered;
    below_lost += cut[at] ? 1 : 0;
  });
  rig.network.setDeliverySink(&on_deliver);
  rig.network.setAllLinksDuplicationProb(0.5);
  for (std::uint32_t seq = 0; seq < 20; ++seq) {
    rig.network.multicastFromSource(
        Packet{Packet::Type::kData, seq, rig.topo.source, 0, 0}, &pattern);
  }
  rig.sim.run();
  EXPECT_GT(rig.network.stats().duplicates_created, 100u);
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(below_lost, 0u);
}

TEST(ChaosNetworkTest, JitterDelaysWithoutLosingOrDuplicating) {
  Rig rig;
  const net::NodeId client = rig.topo.clients.front();
  const double base = rig.routing.distance(rig.topo.source, client);
  std::vector<net::NodeId> route;
  rig.routing.pathInto(rig.topo.source, client, route);
  const double hops = static_cast<double>(route.size() - 1);

  rig.network.setAllLinksJitterMs(5.0);
  std::uint64_t delivered = 0;
  double arrived_at = -1.0;
  test_support::DeliveryFn on_deliver([&](net::NodeId at, const Packet&) {
        if (at == client) {
          ++delivered;
          arrived_at = rig.sim.now();
        }
      });
  rig.network.setDeliverySink(&on_deliver);
  rig.network.unicast(rig.topo.source, client, request(rig.topo.source));
  rig.sim.run();
  ASSERT_EQ(delivered, 1u);
  EXPECT_GE(arrived_at, base);
  EXPECT_LE(arrived_at, base + 5.0 * hops);
}

TEST(ChaosNetworkTest, ChaosSettersValidateTheirRanges) {
  Rig rig;
  const net::NodeId client = rig.topo.clients.front();
  const net::NodeId hop = rig.firstHopTo(client);
  EXPECT_THROW(rig.network.setAllLinksDuplicationProb(1.0),
               std::invalid_argument);
  EXPECT_THROW(rig.network.setAllLinksJitterMs(-1.0), std::invalid_argument);
  // Unknown edge: same rejection as every other link accessor.
  EXPECT_THROW(rig.network.stageLinkState(client, client, 0.0, false),
               std::invalid_argument);
  // A link's timeline alternates down/up and runs forward in time.
  EXPECT_THROW(rig.network.stageLinkState(rig.topo.source, hop, 0.0, true),
               std::invalid_argument);
  rig.network.stageLinkState(rig.topo.source, hop, 5.0, false);
  EXPECT_THROW(rig.network.stageLinkState(rig.topo.source, hop, 4.0, true),
               std::invalid_argument);
}

#if RMRN_CHECKS_ENABLED
TEST(ChaosNetworkTest, StagingBeforeADecidedCrossingIsRefused) {
  // A unicast decides its whole route when it leaves, link states
  // included, so a change staged at or before a crossing already decided
  // would rewrite history: refused.  A later change is fine.
  Rig rig;
  const net::NodeId client = rig.topo.clients.back();
  std::vector<net::NodeId> route;
  rig.routing.pathInto(rig.topo.source, client, route);
  ASSERT_GE(route.size(), 3u);
  // The last hop starts crossing when the packet reaches route[n - 2].
  double last_crossing = 0.0;
  for (std::size_t i = 0; i + 2 < route.size(); ++i) {
    last_crossing += *rig.topo.graph.edgeDelay(route[i], route[i + 1]);
  }
  const net::NodeId a = route[route.size() - 2];
  const net::NodeId b = route.back();
  std::uint64_t delivered = 0;
  test_support::DeliveryFn on_deliver(
      [&delivered](net::NodeId, const Packet&) { ++delivered; });
  rig.network.setDeliverySink(&on_deliver);
  rig.network.setAllLinksJitterMs(0.0);  // chaos on, no timeline yet
  rig.network.unicast(rig.topo.source, client, request(rig.topo.source));
  EXPECT_THROW(rig.network.stageLinkState(a, b, 0.0, false),
               util::ContractViolation);
  EXPECT_THROW(rig.network.stageLinkState(a, b, last_crossing, false),
               util::ContractViolation);
  EXPECT_NO_THROW(rig.network.stageLinkState(a, b, last_crossing + 1.0,
                                             false));
  rig.sim.run();
  EXPECT_EQ(delivered, 1u);
}
#endif  // RMRN_CHECKS_ENABLED

TEST(ChaosNetworkTest, ReachableFromSourceTracksRouteAndTreePath) {
  Rig rig;
  // Chaos off: everyone reachable.
  for (const net::NodeId client : rig.topo.clients) {
    EXPECT_TRUE(rig.network.reachableFromSource(client, rig.sim.now()));
  }
  // Cutting a client's parent tree link makes it unreachable (the multicast
  // repair path is gone even if a unicast detour exists).
  const net::NodeId client = rig.topo.clients.front();
  const net::NodeId parent = rig.topo.tree.parent(client);
  rig.network.stageLinkState(parent, client, 1.0, false);
  rig.network.stageLinkState(parent, client, 2.0, true);
  test_support::ScheduledCalls calls(rig.sim);
  calls.at(1.5, [&rig, client] {
    EXPECT_FALSE(rig.network.reachableFromSource(client, rig.sim.now()));
  });
  calls.at(2.0, [&rig, client] {
    EXPECT_TRUE(rig.network.reachableFromSource(client, rig.sim.now()));
  });
  rig.sim.run();
  EXPECT_EQ(rig.sim.now(), 2.0);
}

}  // namespace
}  // namespace rmrn::sim
