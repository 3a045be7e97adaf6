// SimNetwork's unicast route cache (DESIGN.md §10.2): a (sender, receiver)
// pair's route is resolved to CSR slots on the pair's first send and every
// later send walks that span.  The cache must be invisible: repeated sends
// on a pair and on its reverse match the hop-by-hop reference
// (tests/support/hop_network.hpp), which rebuilds every route from the
// routing table, bit for bit, with a TraceRecorder attached.
//
// The ring below gives (kA, kB) two equal-cost routes, and the routing
// table's ties pick a different one in each direction, so a cache that
// served one direction from the other's route would walk the wrong links.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/network.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/region_map.hpp"
#include "sim/simulator.hpp"
#include "support/delivery_fn.hpp"
#include "support/scheduled_calls.hpp"
#include "support/transport_diff.hpp"
#include "util/rng.hpp"

namespace rmrn::sim {
namespace {

using net::NodeId;
using test_support::expectClosedFormMatchesReference;
using test_support::Outcome;
using test_support::packet;
using test_support::Scenario;
using test_support::ScheduledCalls;

constexpr NodeId kA = 0;         // the source
constexpr NodeId kB = 3;         // a client across the ring
constexpr NodeId kIsolated = 6;  // no link at all

/// A ring of unit-delay links 0-1-4-3-2-5-0 and an isolated node 6.  Both
/// 0-1-4-3 and 0-5-2-3 are shortest routes between kA and kB, and 1-0-5-2
/// and 1-4-3-2 between 1 and 2.  The tree is the ring less the link 3-2;
/// every ring node but the source is a client.
net::Topology ringTopology() {
  net::Topology topo;
  topo.graph = net::Graph(7);
  topo.graph.addEdge(0, 1, 1.0);
  topo.graph.addEdge(1, 4, 1.0);
  topo.graph.addEdge(4, 3, 1.0);
  topo.graph.addEdge(3, 2, 1.0);
  topo.graph.addEdge(2, 5, 1.0);
  topo.graph.addEdge(5, 0, 1.0);
  std::vector<NodeId> parent(7, net::kInvalidNode);
  parent[1] = 0;
  parent[4] = 1;
  parent[3] = 4;
  parent[5] = 0;
  parent[2] = 5;
  topo.tree = net::MulticastTree(0, std::move(parent));
  topo.source = 0;
  topo.clients = {1, 2, 3, 4, 5};
  return topo;
}

/// The pairs the scenarios send on: both directions of two equal-cost
/// pairs.
const std::vector<std::pair<NodeId, NodeId>>& pairs() {
  static const std::vector<std::pair<NodeId, NodeId>> kPairs = {
      {kA, kB}, {kB, kA}, {1, 2}, {2, 1}};
  return kPairs;
}

/// `rounds` sends on every pair of pairs(), each from its own time: the
/// send times are distinct multiples of 0.37 ms, so no two sends' arrivals
/// tie on the unit-delay ring.
Scenario repeatedSends(int rounds) {
  return [rounds](auto& net, ScheduledCalls& calls) {
    std::uint64_t seq = 0;
    for (int round = 0; round < rounds; ++round) {
      for (const auto& [from, to] : pairs()) {
        const TimeMs at = 0.37 * static_cast<TimeMs>(seq);
        calls.at(at, [&net, from = from, to = to, seq] {
          net.unicast(from, to, packet(Packet::Type::kRequest, seq, from));
        });
        ++seq;
      }
    }
  };
}

/// `sends`, after staging flaps on the middle link of each direction's
/// route between kA and kB.
Scenario withFlaps(const net::Topology& topo, Scenario sends) {
  return [&topo, sends](auto& net, ScheduledCalls& calls) {
    const net::Routing routing(topo.graph);
    const auto middle = [&routing](NodeId from, NodeId to) {
      std::vector<NodeId> route;
      routing.pathInto(from, to, route);
      return std::pair{route[1], route[2]};
    };
    const auto [f1, f2] = middle(kA, kB);
    net.stageLinkState(f1, f2, 1.05, /*up=*/false);
    net.stageLinkState(f1, f2, 2.95, /*up=*/true);
    net.stageLinkState(f1, f2, 6.05, /*up=*/false);
    net.stageLinkState(f1, f2, 7.45, /*up=*/true);
    const auto [r1, r2] = middle(kB, kA);
    net.stageLinkState(r1, r2, 3.05, /*up=*/false);
    net.stageLinkState(r1, r2, 5.15, /*up=*/true);
    sends(net, calls);
  };
}

TEST(UnicastRouteTest, DirectionsTakeDifferentRoutes) {
  // The precondition of every case below: a route served from the reverse
  // pair's would walk other links.
  const net::Topology topo = ringTopology();
  const net::Routing routing(topo.graph);
  for (const auto& [from, to] : pairs()) {
    std::vector<NodeId> forward;
    std::vector<NodeId> backward;
    routing.pathInto(from, to, forward);
    routing.pathInto(to, from, backward);
    ASSERT_EQ(forward.size(), 4u);
    std::reverse(backward.begin(), backward.end());
    EXPECT_NE(forward, backward) << from << " -> " << to;
  }
}

TEST(UnicastRouteTest, RepeatedLosslessSendsMatchReference) {
  const net::Topology topo = ringTopology();
  const Outcome fast =
      expectClosedFormMatchesReference(topo, 0.0, repeatedSends(6));
  EXPECT_EQ(fast.deliveries.size(), 6 * pairs().size());
}

TEST(UnicastRouteTest, RepeatedKeyedLossySendsMatchReference) {
  const net::Topology topo = ringTopology();
  const Outcome fast =
      expectClosedFormMatchesReference(topo, 0.2, repeatedSends(10));
  EXPECT_GT(fast.stats.packets_lost, 0u);
}

TEST(UnicastRouteTest, DuplicatesWalkTheRestOfTheSpan) {
  // Jittered copies never tie with their originals, so the exact order
  // holds; a copy made on a route's first or second link walks the rest of
  // the cached span from the link's far end.
  const net::Topology topo = ringTopology();
  const Scenario sends = repeatedSends(10);
  const Scenario scenario = [sends](auto& net, ScheduledCalls& calls) {
    net.setAllLinksDuplicationProb(0.3);
    net.setAllLinksJitterMs(0.5);
    sends(net, calls);
  };
  const Outcome fast = expectClosedFormMatchesReference(topo, 0.1, scenario);
  EXPECT_GT(fast.stats.duplicates_created, 0u);
  EXPECT_GT(fast.deliveries.size(), 10 * pairs().size() / 2);
}

TEST(UnicastRouteTest, FlapTimelineMatchesReference) {
  const net::Topology topo = ringTopology();
  const Outcome fast = expectClosedFormMatchesReference(
      topo, 0.1, withFlaps(topo, repeatedSends(6)));
  EXPECT_GT(fast.stats.chaos_link_drops, 0u);
}

/// A lossless network on the ring, with every delivery recorded.
struct RingRig {
  net::Topology topo = ringTopology();
  net::Routing routing{topo.graph};
  Simulator sim;
  SimNetwork net{sim, topo, routing, 0.0, lossSeedOf(util::Rng(5))};
  std::vector<std::pair<NodeId, TimeMs>> deliveries;
  test_support::DeliveryFn sink{[this](NodeId at, const Packet&) {
    deliveries.emplace_back(at, sim.now());
  }};
  RingRig() { net.setDeliverySink(&sink); }
};

TEST(UnicastRouteTest, CachesOneRoutePerPair) {
  RingRig rig;
  for (int round = 0; round < 3; ++round) {
    for (const auto& [from, to] : pairs()) {
      rig.net.unicast(from, to, packet(Packet::Type::kRequest, 1, from));
    }
    rig.net.unicast(kB, kB, packet(Packet::Type::kRequest, 1, kB));
    EXPECT_EQ(rig.net.cachedRoutes(), pairs().size());  // self-sends: none
  }
  rig.sim.run();
  EXPECT_EQ(rig.deliveries.size(), 3 * (pairs().size() + 1));
}

TEST(UnicastRouteTest, NoRouteThrowsOnEverySendAndCachesNothing) {
  RingRig rig;
  const Packet request = packet(Packet::Type::kRequest, 1, kA);
  EXPECT_THROW(rig.net.unicast(kA, kIsolated, request), std::invalid_argument);
  EXPECT_EQ(rig.net.cachedRoutes(), 0u);
  EXPECT_THROW(rig.net.unicast(kA, kIsolated, request), std::invalid_argument);
  EXPECT_EQ(rig.net.cachedRoutes(), 0u);
  // A send that does route still takes its route and arrives.
  rig.net.unicast(kA, kB, request);
  EXPECT_EQ(rig.net.cachedRoutes(), 1u);
  rig.sim.run();
  ASSERT_EQ(rig.deliveries.size(), 1u);
  EXPECT_EQ(rig.deliveries.front(), std::pair(kB, TimeMs{3.0}));
}

TEST(UnicastRouteTest, FailedSendsTakeNoSendKey) {
  // Every send but the failed ones is keyed as on the reference, which
  // rebuilds each route: a failed send draws no key, so the keyed losses
  // of the sends after it stay the same.
  const net::Topology topo = ringTopology();
  const Scenario sends = repeatedSends(8);
  const Scenario scenario = [sends](auto& net, ScheduledCalls& calls) {
    for (int i = 0; i < 8; ++i) {
      calls.at(0.11 + 1.3 * i, [&net] {
        const Packet request = packet(Packet::Type::kRequest, 0, kA);
        EXPECT_THROW(net.unicast(kA, kIsolated, request),
                     std::invalid_argument);
      });
    }
    sends(net, calls);
  };
  const Outcome fast = expectClosedFormMatchesReference(topo, 0.2, scenario);
  EXPECT_GT(fast.stats.packets_lost, 0u);
}

/// One delivery in a region's network: when, where and which send.
using Arrival = std::tuple<TimeMs, NodeId, std::uint64_t>;

TEST(UnicastRouteTest, ShardRegionsKeepTheirOwnCaches) {
  // Each region's network caches the routes of the sends its own nodes
  // make, and regions run on two workers; every delivery must match the
  // serial closed form's, bit for bit.
  const net::Topology topo = test_support::randomTopology(71, 120);
  const net::Routing routing(topo.graph);
  const RegionMap regions(topo, /*target_regions=*/4);
  ASSERT_GE(regions.numRegions(), 3u);
  std::vector<NodeId> agents = topo.clients;
  agents.push_back(topo.source);
  std::vector<std::pair<NodeId, NodeId>> sends;
  for (std::size_t i = 0; sends.size() < 24 && i < agents.size(); ++i) {
    const NodeId from = agents[i];
    const NodeId to = agents[(i * 7 + 3) % agents.size()];
    if (regions.regionOf(from) != regions.regionOf(to)) {
      sends.emplace_back(from, to);
      sends.emplace_back(to, from);
    }
  }
  ASSERT_GE(sends.size(), 8u);
  constexpr double kLoss = 0.1;
  const std::uint64_t loss_seed = lossSeedOf(util::Rng(9));
  constexpr int kRounds = 3;
  // Schedules every round of `sends` from the sender's network.
  const auto schedule = [&sends](auto network_of, auto calls_of) {
    std::uint64_t seq = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [from, to] : sends) {
        SimNetwork* net = network_of(from);
        const TimeMs at = 0.37 * static_cast<TimeMs>(seq);
        calls_of(from).at(at, [net, from = from, to = to, seq] {
          net->unicast(from, to, packet(Packet::Type::kRequest, seq, from));
        });
        ++seq;
      }
    }
  };
  const auto configure = [](SimNetwork& net) {
    net.setAllLinksDuplicationProb(0.2);
    net.setAllLinksJitterMs(0.3);
  };

  std::vector<Arrival> serial;
  {
    Simulator sim;
    SimNetwork net(sim, topo, routing, kLoss, loss_seed);
    configure(net);
    test_support::DeliveryFn sink([&](NodeId at, const Packet& p) {
      serial.emplace_back(sim.now(), at, p.seq);
    });
    net.setDeliverySink(&sink);
    ScheduledCalls calls(sim);
    schedule([&net](NodeId) { return &net; },
             [&calls](NodeId) -> ScheduledCalls& { return calls; });
    sim.run();
  }

  const std::uint32_t n = regions.numRegions();
  ParallelEngine engine(regions, /*workers=*/2);
  std::vector<std::unique_ptr<Simulator>> sims;
  std::vector<std::unique_ptr<SimNetwork>> nets;
  std::vector<std::unique_ptr<ScheduledCalls>> calls;
  std::vector<std::unique_ptr<test_support::DeliveryFn>> sinks;
  // One arrival list per region: regions deliver on different workers.
  std::vector<std::vector<Arrival>> arrivals(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    Simulator& sim = *sims.emplace_back(std::make_unique<Simulator>());
    SimNetwork& net = *nets.emplace_back(
        std::make_unique<SimNetwork>(sim, topo, routing, kLoss, loss_seed));
    net.enableShardMode(regions, r, &engine.outboxFor(r));
    configure(net);
    calls.push_back(std::make_unique<ScheduledCalls>(sim));
    sinks.push_back(std::make_unique<test_support::DeliveryFn>(
        [&sim, &list = arrivals[r]](NodeId at, const Packet& p) {
          list.emplace_back(sim.now(), at, p.seq);
        }));
    net.setDeliverySink(sinks.back().get());
    engine.attach(r, &sim, &net);
  }
  const auto network_of = [&](NodeId from) {
    return nets[regions.regionOf(from)].get();
  };
  const auto calls_of = [&](NodeId from) -> ScheduledCalls& {
    return *calls[regions.regionOf(from)];
  };
  schedule(network_of, calls_of);
  const ParallelEngine::Stats stats = engine.run();
  EXPECT_GT(stats.handoffs, 0u);

  std::vector<Arrival> sharded;
  for (const auto& list : arrivals) {
    sharded.insert(sharded.end(), list.begin(), list.end());
  }
  std::sort(serial.begin(), serial.end());
  std::sort(sharded.begin(), sharded.end());
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(sharded, serial);  // times compared bit for bit

  // A region caches exactly the pairs its own nodes sent on.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> sent_from(n);
  for (const auto& pair : sends) {
    sent_from[regions.regionOf(pair.first)].push_back(pair);
  }
  for (std::uint32_t r = 0; r < n; ++r) {
    auto& mine = sent_from[r];
    std::sort(mine.begin(), mine.end());
    mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
    EXPECT_EQ(nets[r]->cachedRoutes(), mine.size()) << "region " << r;
  }
}

}  // namespace
}  // namespace rmrn::sim
