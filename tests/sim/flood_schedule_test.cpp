// Flood schedules (DESIGN.md §10.2): a whole-tree flood from a member
// replays its origin's schedule instead of keeping a frontier heap, and
// must stay indistinguishable from the hop-by-hop reference
// (tests/support/hop_network.hpp): the same delivery sequence bit for bit,
// every NetworkStats counter, the same link loads and the same trace.
//
// The schedule's order is proven for a range of start times only; floods
// outside it, and floods that are scoped, jittered or duplicated, keep the
// frontier.  The tests check both sides: which floods replayed
// (SimNetwork::floodsReplayed), and that every run still matches the
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/graph.hpp"
#include "net/multicast_tree.hpp"
#include "net/topology.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/delivery_fn.hpp"
#include "support/scheduled_calls.hpp"
#include "support/tie_trees.hpp"
#include "support/transport_diff.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rmrn::sim {
namespace {

using net::NodeId;
using test_support::expectClosedFormMatchesReference;
using test_support::Outcome;
using test_support::packet;
using test_support::randomTopology;
using test_support::Reaction;
using test_support::ScheduledCalls;
using test_support::Scenario;

/// A member with children that is neither the root nor an agent.
NodeId innerRouter(const net::Topology& topo) {
  for (const NodeId v : topo.tree.members()) {
    if (v != topo.tree.root() && !topo.tree.children(v).empty() &&
        !topo.isClient(v)) {
      return v;
    }
  }
  return topo.tree.root();
}

/// Seven whole-tree floods, each from its own origin at its own time: keyed
/// and forced-pattern data floods, group floods from two clients and an
/// inner router, a down-into-root repair and a parity wave.  Two scoped
/// floods ride along, which keep the frontier.
Scenario wholeTreeFloods(const net::Topology& topo, std::uint64_t seed) {
  util::Rng rng(seed);
  LinkLossPattern pattern(topo.tree.numMembers(), false);
  for (std::size_t m = 1; m < pattern.size(); ++m) {
    pattern[m] = rng.bernoulli(0.2);
  }
  return [&topo, pattern](auto& net, ScheduledCalls& calls) {
    const auto& c = topo.clients;
    const NodeId src = topo.source;
    const NodeId router = innerRouter(topo);
    calls.at(0.0, [&net, src] {
      net.multicastFromSource(packet(Packet::Type::kData, 0, src));
    });
    calls.at(0.37, [&net, src, pattern] {
      net.multicastFromSource(packet(Packet::Type::kData, 1, src), &pattern);
    });
    calls.at(1.13, [&net, &c] {
      net.multicastGroup(c[0], packet(Packet::Type::kRequest, 1, c[0]));
    });
    calls.at(1.91, [&net, router] {
      net.multicastGroup(router, packet(Packet::Type::kRequest, 2, router));
    });
    calls.at(2.29, [&net, &c] {
      net.multicastGroup(c[1], packet(Packet::Type::kRepair, 1, c[1]));
    });
    calls.at(2.83, [&net, &topo, &c] {
      net.multicastSubtree(topo.tree.parent(c[2]), c[2],
                           packet(Packet::Type::kRepair, 2, c[2]));
    });
    calls.at(3.71, [&net, &topo, src] {
      net.multicastDownInto(topo.tree.root(),
                            packet(Packet::Type::kRepair, 3, src));
    });
    calls.at(4.19, [&net, &topo, &c, src] {
      net.multicastDownInto(topo.tree.parent(c[3]),
                            packet(Packet::Type::kRepair, 4, src));
    });
    calls.at(5.02, [&net, src] {
      net.multicastFromSource(packet(Packet::Type::kParity, 5, src));
    });
  };
}
constexpr std::uint64_t kWholeTreeFloods = 7;

class FloodScheduleRandomTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FloodScheduleRandomTest, LosslessFloodsReplayAndMatchReference) {
  const net::Topology topo = randomTopology(GetParam(), 90);
  ASSERT_GE(topo.clients.size(), 4u);
  const Outcome fast = expectClosedFormMatchesReference(
      topo, 0.0, wholeTreeFloods(topo, GetParam()));
  EXPECT_EQ(fast.floods_replayed, kWholeTreeFloods);
  EXPECT_GT(fast.stats.packets_lost, 0u);  // the forced pattern's
}

TEST_P(FloodScheduleRandomTest, KeyedLossyFloodsReplayAndMatchReference) {
  // 10% loss on every link: a replay skips each lost link and the subtree
  // behind it, and still closes when no surviving crossing is left.
  const net::Topology topo = randomTopology(GetParam() + 100, 90);
  ASSERT_GE(topo.clients.size(), 4u);
  const Outcome fast = expectClosedFormMatchesReference(
      topo, 0.1, wholeTreeFloods(topo, GetParam() + 7));
  EXPECT_EQ(fast.floods_replayed, kWholeTreeFloods);
  EXPECT_GT(fast.stats.packets_lost, 10u);
}

TEST_P(FloodScheduleRandomTest, PureTreeBackbonesReplayAndMatchReference) {
  // A Prüfer tree backbone: deeper trees, longer schedules.
  util::Rng rng(GetParam() + 200);
  const net::Topology topo = net::generateTreeTopology(120, rng);
  ASSERT_GE(topo.clients.size(), 4u);
  const Outcome fast = expectClosedFormMatchesReference(
      topo, 0.05, wholeTreeFloods(topo, GetParam() + 11));
  EXPECT_EQ(fast.floods_replayed, kWholeTreeFloods);
}

TEST_P(FloodScheduleRandomTest, FloodsStartedFromHandlersReplay) {
  // Every third client a REQUEST flood reaches answers from inside its
  // delivery with a group flood from the next client; clients 1 and 2
  // answer the first REQUEST with a down-into-root repair and a
  // forced-pattern data flood.  So records and schedules are made while a
  // cursor is being delivered, and every send replays.  (More root floods
  // answering one flood would tie with each other: the arrival at client b
  // of a's answer adds up the same delays as the arrival at a of b's; see
  // closed_form_test's file comment.)
  const net::Topology topo = randomTopology(GetParam() + 300, 90);
  const auto& clients = topo.clients;
  ASSERT_GE(clients.size(), 4u);
  LinkLossPattern pattern(topo.tree.numMembers(), false);
  for (std::size_t m = 3; m < pattern.size(); m += 5) pattern[m] = true;
  const Scenario scenario = [&clients](auto& net, ScheduledCalls& calls) {
    calls.at(0.5, [&net, &clients] {
      net.multicastGroup(clients[0],
                         packet(Packet::Type::kRequest, 7, clients[0]));
    });
    calls.at(2.25, [&net, &clients] {
      net.multicastGroup(clients[1],
                         packet(Packet::Type::kRequest, 8, clients[1]));
    });
  };
  const Reaction react = [&clients, &topo, pattern](auto& net, NodeId at,
                                                    const Packet& p) {
    if (p.type != Packet::Type::kRequest || p.tag != 0) return;
    const auto it = std::lower_bound(clients.begin(), clients.end(), at);
    if (it == clients.end() || *it != at) return;  // the source
    const auto index = static_cast<std::size_t>(it - clients.begin());
    if (index % 3 == 0) {
      const NodeId next = clients[(index + 1) % clients.size()];
      net.multicastGroup(next, packet(Packet::Type::kRepair, p.seq, next, 2));
    } else if (index == 1 && p.seq == 7) {
      net.multicastDownInto(topo.tree.root(),
                            packet(Packet::Type::kRepair, p.seq, at, 3));
    } else if (index == 2 && p.seq == 7) {
      net.multicastFromSource(
          packet(Packet::Type::kData, 100, topo.source, 4), &pattern);
    }
  };
  const Outcome fast =
      expectClosedFormMatchesReference(topo, 0.0, scenario, react);
  EXPECT_GT(fast.stats.packets_sent, 2u + clients.size() / 3);
  EXPECT_EQ(fast.floods_replayed, fast.stats.packets_sent);
}

TEST_P(FloodScheduleRandomTest, LinkTimelineDropsMatchReference) {
  // Link flaps keep every delay static, so floods still replay; a replay
  // skips a link that was down when its flood-parent expanded.
  const net::Topology topo = randomTopology(GetParam() + 400, 90);
  ASSERT_GE(topo.clients.size(), 4u);
  const Scenario floods = wholeTreeFloods(topo, GetParam() + 13);
  const Scenario scenario = [&topo, floods](auto& net,
                                            ScheduledCalls& calls) {
    const auto& members = topo.tree.members();
    for (std::size_t m = 1; m < members.size(); m += 5) {
      const TimeMs start = 0.2 + 0.37 * static_cast<TimeMs>(m % 13);
      for (int cycle = 0; cycle < 10; ++cycle) {
        const TimeMs down = start + 4.0 * cycle;
        net.stageLinkState(topo.tree.parent(members[m]), members[m], down,
                           /*up=*/false);
        net.stageLinkState(topo.tree.parent(members[m]), members[m],
                           down + 1.5, /*up=*/true);
      }
    }
    floods(net, calls);
  };
  const Outcome fast = expectClosedFormMatchesReference(topo, 0.05, scenario);
  EXPECT_EQ(fast.floods_replayed, kWholeTreeFloods);
  EXPECT_GT(fast.stats.chaos_link_drops, 0u);
}

TEST_P(FloodScheduleRandomTest, WalksCutByRunWindowsMatchReference) {
  // A replayed flood handles each crossing when its walk reaches it, and
  // the walk stops at every agent arrival it cannot hand over.  Running in
  // short run(until) windows stops the clock in the middle of those walks;
  // once everything has run, keyed-lossy and forced-pattern floods over
  // links with timelines count, load and trace exactly as the reference.
  const net::Topology topo = randomTopology(GetParam() + 600, 90);
  ASSERT_GE(topo.clients.size(), 4u);
  const Scenario floods = wholeTreeFloods(topo, GetParam() + 19);
  const Scenario scenario = [&topo, floods](auto& net,
                                            ScheduledCalls& calls) {
    const auto& members = topo.tree.members();
    for (std::size_t m = 2; m < members.size(); m += 4) {
      const TimeMs down = 0.3 + 0.41 * static_cast<TimeMs>(m % 11);
      net.stageLinkState(topo.tree.parent(members[m]), members[m], down,
                         /*up=*/false);
      net.stageLinkState(topo.tree.parent(members[m]), members[m],
                         down + 2.5, /*up=*/true);
    }
    floods(net, calls);
  };
  const Outcome fast = expectClosedFormMatchesReference(
      topo, 0.1, scenario, /*react=*/{}, /*window=*/0.25);
  EXPECT_EQ(fast.floods_replayed, kWholeTreeFloods);
  EXPECT_GT(fast.windows_cut, 10u);
  EXPECT_GT(fast.stats.chaos_link_drops, 0u);
  EXPECT_GT(fast.stats.packets_lost, fast.stats.chaos_link_drops);
}

TEST_P(FloodScheduleRandomTest, JitterKeepsTheFrontier) {
  // Jitter changes every crossing's delay, so no static order exists.
  const net::Topology topo = randomTopology(GetParam() + 500, 90);
  ASSERT_GE(topo.clients.size(), 4u);
  const Scenario floods = wholeTreeFloods(topo, GetParam() + 17);
  const Scenario scenario = [floods](auto& net, ScheduledCalls& calls) {
    net.setAllLinksJitterMs(0.9);
    floods(net, calls);
  };
  const Outcome fast = expectClosedFormMatchesReference(topo, 0.05, scenario);
  EXPECT_EQ(fast.floods_replayed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloodScheduleRandomTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(FloodScheduleUnitDelayTest, NoScheduleIsAcceptedAndFloodsMatch) {
  // Unit delays tie cousins at every depth: no schedule can order them for
  // every start time, so every flood keeps the frontier.  Each member
  // floods once, at a start time that ties with no other flood's arrivals.
  const net::Topology topo = test_support::unitDelayTernaryTree();
  const Scenario scenario = [&topo](auto& net, ScheduledCalls& calls) {
    const auto& members = topo.tree.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      const NodeId from = members[i];
      const TimeMs at = std::sqrt(2.0) * static_cast<TimeMs>(i);
      calls.at(at, [&net, from, i] {
        net.multicastGroup(from, packet(Packet::Type::kRequest, i, from));
      });
    }
    calls.at(0.5, [&net, &topo] {
      net.multicastFromSource(packet(Packet::Type::kData, 0, topo.source));
    });
  };
  const Outcome fast = expectClosedFormMatchesReference(topo, 0.0, scenario);
  EXPECT_EQ(fast.floods_replayed, 0u);
  EXPECT_EQ(fast.stats.packets_sent, topo.tree.numMembers() + 1);
}

/// Arrival at the end of `delays` from `start`, folded hop by hop as every
/// transport does.
TimeMs fold(TimeMs start, const std::vector<TimeMs>& delays) {
  for (const TimeMs d : delays) start += d;
  return start;
}

TEST(FloodScheduleNearTieTest, FloodPastTheProvenBoundTakesTheFrontier) {
  // Source 0 reaches agent 3 through router 1 (2 + 1 ms) and agent 4
  // through router 2 (1 + (2 + 2^-30) ms): agent 3 first when the flood
  // starts at 0.  Late enough, folding rounds both to one time, and then
  // agent 4 goes first (router 2 expanded first).  A schedule built for
  // early starts must not serve that flood.
  const std::vector<TimeMs> to_a = {2.0, 1.0};
  const std::vector<TimeMs> to_b = {1.0, 2.0 + std::ldexp(1.0, -30)};
  ASSERT_LT(fold(0.0, to_a), fold(0.0, to_b));
  TimeMs late = -1.0;
  for (int k = 0; k < 60 && late < 0.0; ++k) {
    const TimeMs start = std::ldexp(1.0, k);
    if (!(fold(start, to_a) < fold(start, to_b))) late = start;
  }
  ASSERT_GT(late, 0.0) << "no start time flips the two agents";

  net::Topology topo;
  topo.graph = net::Graph(5);
  topo.graph.addEdge(0, 1, to_a[0]);
  topo.graph.addEdge(1, 3, to_a[1]);
  topo.graph.addEdge(0, 2, to_b[0]);
  topo.graph.addEdge(2, 4, to_b[1]);
  topo.tree = net::MulticastTree(0, {net::kInvalidNode, 0, 0, 1, 2});
  topo.source = 0;
  topo.clients = {3, 4};
  const Scenario scenario = [late](auto& net, ScheduledCalls& calls) {
    calls.at(0.0, [&net] {
      net.multicastFromSource(packet(Packet::Type::kData, 0, 0));
    });
    calls.at(late, [&net] {
      net.multicastFromSource(packet(Packet::Type::kData, 1, 0));
    });
  };
  const Outcome fast = expectClosedFormMatchesReference(topo, 0.0, scenario);
  EXPECT_EQ(fast.floods_replayed, 1u);  // the early flood only
  ASSERT_EQ(fast.deliveries.size(), 4u);
  EXPECT_EQ(fast.deliveries[0].at, 3u);
  EXPECT_EQ(fast.deliveries[1].at, 4u);
  EXPECT_EQ(fast.deliveries[2].at, 4u);  // the order flipped
  EXPECT_EQ(fast.deliveries[3].at, 3u);
  EXPECT_EQ(fast.deliveries[2].time, fast.deliveries[3].time);
}

#if RMRN_CHECKS_ENABLED
TEST(FloodScheduleStagingTest, ChangeAtACrossingTheWalkReadIsRefused) {
  // Source 0 -> router 1 -> agent 2 -> agent 3.  A flood from 0 at time 0
  // walks ahead of the clock: it reads the crossings out of 0 (at 0) and 1
  // (at 1.5) and stops at 2's arrival (2.25).  A change at or before 1.5
  // would rewrite a crossing already read: refused.  The crossing out of 2
  // is read only when 2's cursor fires, so a change at its time, 2.25, is
  // still accepted, and drops it.
  net::Topology topo;
  topo.graph = net::Graph(4);
  topo.graph.addEdge(0, 1, 1.5);
  topo.graph.addEdge(1, 2, 0.75);
  topo.graph.addEdge(2, 3, 0.375);
  topo.tree = net::MulticastTree(0, {net::kInvalidNode, 0, 1, 2});
  topo.source = 0;
  topo.clients = {2, 3};
  const net::Routing routing(topo.graph);
  Simulator sim;
  SimNetwork network(sim, topo, routing, 0.0, 1);
  std::vector<std::pair<TimeMs, NodeId>> delivered;
  test_support::DeliveryFn on_deliver([&](NodeId at, const Packet&) {
    delivered.emplace_back(sim.now(), at);
  });
  network.setDeliverySink(&on_deliver);
  network.multicastFromSource(packet(Packet::Type::kData, 0, 0));
  EXPECT_EQ(network.floodsReplayed(), 1u);
  EXPECT_THROW(network.stageLinkState(0, 1, 0.0, false),
               util::ContractViolation);
  EXPECT_THROW(network.stageLinkState(1, 2, 1.5, false),
               util::ContractViolation);
  EXPECT_NO_THROW(network.stageLinkState(2, 3, 2.25, false));
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], std::make_pair(TimeMs{2.25}, NodeId{2}));
  EXPECT_EQ(network.stats().data_hops, 3u);
  EXPECT_EQ(network.stats().chaos_link_drops, 1u);
  EXPECT_EQ(network.stats().packets_lost, 1u);
}
#endif  // RMRN_CHECKS_ENABLED

}  // namespace
}  // namespace rmrn::sim
