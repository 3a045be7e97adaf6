// Differential check of SimNetwork's closed-form transport against the
// hop-by-hop reference forwarder in tests/support/hop_network.hpp
// (DESIGN.md §10.2): lossless, lossy and under link chaos.
//
// Each scenario runs on both, with a TraceRecorder attached, and both runs
// must agree on:
//   * the delivery sequence: bit-exact time, node, packet, and fire order;
//   * every NetworkStats counter, packets_lost and the chaos counters
//     included;
//   * the recovery load of every graph link;
//   * the trace: the same records in time order (records of one bit-equal
//     time compared as a set, since the closed form emits a send's hop
//     records when it decides them, the reference as it crosses them).
// Loss, jitter and duplication are keyed draws (sim/keyed_loss.hpp) and
// link state is a staged timeline, so the closed form decides a link when
// it expands the link, and both lose, delay and copy the same packets.
//
// The contract has one documented limit: a closed-form arrival takes its
// place in the global (time, insertion) order when it is scheduled, not when
// the reference would have scheduled its last hop.  Arrivals of one flood
// keep their order however they tie, but arrivals of two sends that are
// bit-equal in time may swap, and a chaos duplicate is a send of its own.
// The exact-order scenarios below therefore use random delays and start
// every send from its own node at its own time; the *ReorderOnlyTies tests
// pin what the limit allows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/hop_network.hpp"
#include "support/scheduled_calls.hpp"
#include "util/rng.hpp"

namespace rmrn::sim {
namespace {

using net::NodeId;

struct Delivery {
  TimeMs time;
  NodeId at;
  Packet packet;
};

auto fields(const Delivery& d) {
  return std::make_tuple(d.time, d.at, d.packet.type, d.packet.seq,
                         d.packet.origin, d.packet.requester, d.packet.tag);
}

struct Outcome {
  std::vector<Delivery> deliveries;
  NetworkStats stats;
  std::vector<std::uint64_t> link_loads;  // by (a < b) edge, node order
  std::vector<TraceEvent> trace;          // stably ordered by time
  /// Events fired at a link crossing's far end: one per hop on the
  /// reference; on the closed form only shard resumes, so none here.
  std::uint64_t per_hop_events = 0;
};

using test_support::HopNetwork;

/// A callable run on either transport: one std::function per network type,
/// both built from the same generic lambda.
template <typename... Args>
class Both {
 public:
  Both() = default;
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, Both>>>
  Both(F f) : fast_(f), reference_(f) {}  // NOLINT(google-explicit-constructor)

  explicit operator bool() const { return static_cast<bool>(fast_); }
  template <typename Net>
  void operator()(Net& net, Args... args) const {
    if constexpr (std::is_same_v<Net, SimNetwork>) {
      fast_(net, args...);
    } else {
      reference_(net, args...);
    }
  }

 private:
  std::function<void(SimNetwork&, Args...)> fast_;
  std::function<void(HopNetwork&, Args...)> reference_;
};

/// Sends issued at chosen times through ScheduledCalls.
using Scenario = Both<test_support::ScheduledCalls&>;
/// Extra work the delivery handler does after recording a delivery.
using Reaction = Both<NodeId, const Packet&>;

template <typename Net>
Outcome run(const net::Topology& topo, double loss_prob,
            const Scenario& scenario, const Reaction& react) {
  const net::Routing routing(topo.graph);
  Simulator sim;
  Net network(sim, topo, routing, loss_prob, lossSeedOf(util::Rng(5)));
  TraceRecorder recorder;
  network.setTraceSink(recorder.sink());
  Outcome out;
  network.setDeliveryHandler([&](NodeId at, const Packet& packet) {
    out.deliveries.push_back({sim.now(), at, packet});
    if (react) react(network, at, packet);
  });
  test_support::ScheduledCalls calls(sim);
  scenario(network, calls);
  sim.run();
  out.stats = network.stats();
  for (NodeId a = 0; a < topo.graph.numNodes(); ++a) {
    for (const net::HalfEdge& half : topo.graph.neighbors(a)) {
      if (half.to > a) {
        out.link_loads.push_back(network.recoveryLinkLoad(a, half.to));
      }
    }
  }
  out.trace = recorder.events();
  if constexpr (std::is_same_v<Net, HopNetwork>) {
    out.per_hop_events = network.hopEvents();
  } else {
    out.per_hop_events = sim.eventsProcessed(EventKind::kUnicastResume);
  }
  return out;
}

Outcome simulate(const net::Topology& topo, double loss_prob, bool reference,
                 const Scenario& scenario, const Reaction& react = {}) {
  return reference ? run<HopNetwork>(topo, loss_prob, scenario, react)
                   : run<SimNetwork>(topo, loss_prob, scenario, react);
}

auto traceFields(const TraceEvent& e) {
  return std::make_tuple(e.time_ms, e.kind, e.from, e.to, e.packet.type,
                         e.packet.seq, e.packet.origin, e.packet.requester,
                         e.packet.tag);
}

/// Same records in time order; within a group of bit-equal time, the same
/// set of records.
void expectSameTrace(std::vector<TraceEvent> fast,
                     std::vector<TraceEvent> ref) {
  ASSERT_EQ(fast.size(), ref.size());
  const auto by_fields = [](const TraceEvent& a, const TraceEvent& b) {
    return traceFields(a) < traceFields(b);
  };
  // Both are stably ordered by time, so sorting by (time, fields) only
  // reorders records inside bit-equal groups.
  std::sort(fast.begin(), fast.end(), by_fields);
  std::sort(ref.begin(), ref.end(), by_fields);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(traceFields(fast[i]), traceFields(ref[i])) << "record #" << i;
    if (traceFields(fast[i]) != traceFields(ref[i])) break;
  }
}

void expectSameStats(const NetworkStats& a, const NetworkStats& b) {
  EXPECT_EQ(a.data_hops, b.data_hops);
  EXPECT_EQ(a.recovery_hops, b.recovery_hops);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.chaos_link_drops, b.chaos_link_drops);
  EXPECT_EQ(a.duplicates_created, b.duplicates_created);
}

/// Runs `scenario` on both paths and requires identical outcomes.  Returns
/// the closed-form run for scenario-specific checks.
Outcome expectClosedFormMatchesReference(const net::Topology& topo,
                                         double loss_prob,
                                         const Scenario& scenario,
                                         const Reaction& react = {}) {
  const Outcome fast = simulate(topo, loss_prob, false, scenario, react);
  const Outcome ref = simulate(topo, loss_prob, true, scenario, react);
  EXPECT_GT(ref.per_hop_events, 0u);
  EXPECT_EQ(fast.per_hop_events, 0u);
  EXPECT_FALSE(fast.deliveries.empty());
  EXPECT_EQ(fast.deliveries.size(), ref.deliveries.size());
  const std::size_t n = std::min(fast.deliveries.size(), ref.deliveries.size());
  for (std::size_t i = 0; i < n; ++i) {
    // EXPECT_EQ on the tuple compares the times bit for bit.
    EXPECT_EQ(fields(fast.deliveries[i]), fields(ref.deliveries[i]))
        << "delivery #" << i;
    if (fields(fast.deliveries[i]) != fields(ref.deliveries[i])) break;
  }
  expectSameStats(fast.stats, ref.stats);
  EXPECT_EQ(fast.link_loads, ref.link_loads);
  expectSameTrace(fast.trace, ref.trace);
  return fast;
}

net::Topology randomTopology(std::uint64_t seed, std::uint32_t nodes) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = nodes;
  return net::generateTopology(config, rng);
}

/// Node id of the node at breadth-first index `b` of unitDelayTree(): a
/// fixed permutation, so that id order is not arrival order and breaking
/// ties by node id instead of by crossing order would show.
NodeId label(NodeId b) { return b * 37 % 121; }

/// Unit-delay complete ternary tree of depth 4 (plus unit-delay cross
/// links), with every leaf and every fifth internal node an agent: arrivals
/// within one flood tie at every depth, and agents sit between routers.
net::Topology unitDelayTree() {
  constexpr NodeId kNodes = 121;
  net::Topology topo;
  topo.graph = net::Graph(kNodes);
  std::vector<NodeId> parent(kNodes, net::kInvalidNode);
  for (NodeId b = 1; b < kNodes; ++b) {
    parent[label(b)] = label((b - 1) / 3);
    topo.graph.addEdge(label((b - 1) / 3), label(b), 1.0);
  }
  topo.graph.addEdge(label(4), label(9), 1.0);
  topo.graph.addEdge(label(13), label(30), 1.0);
  topo.tree = net::MulticastTree(label(0), parent);
  topo.source = label(0);
  for (NodeId b = 1; b < kNodes; ++b) {
    if (3 * b + 1 >= kNodes || b % 5 == 0) topo.clients.push_back(label(b));
  }
  std::sort(topo.clients.begin(), topo.clients.end());
  return topo;
}

Packet packet(Packet::Type type, std::uint64_t seq, NodeId origin,
              std::uint64_t tag = 0) {
  return Packet{type, seq, origin, origin, tag};
}

/// An internal tree node above `client` (its grandparent when it has one).
NodeId ancestorOf(const net::Topology& topo, NodeId client) {
  const NodeId up = topo.tree.parent(client);
  return up == topo.tree.root() ? up : topo.tree.parent(up);
}

/// Every send kind, each from its own origin at its own time, overlapping
/// in flight: data floods with and without a forced pattern, group,
/// subtree and down-into floods (root and inner scopes), and unicasts.
Scenario everySendKind(const net::Topology& topo, std::uint64_t seed) {
  util::Rng rng(seed);
  LinkLossPattern pattern(topo.tree.numMembers(), false);
  for (std::size_t m = 1; m < pattern.size(); ++m) {
    pattern[m] = rng.bernoulli(0.2);
  }
  return [&topo, pattern](auto& net,
                          test_support::ScheduledCalls& calls) {
    const auto& c = topo.clients;
    const NodeId src = topo.source;
    calls.at(0.0, [&net, src] {
      net.multicastFromSource(packet(Packet::Type::kData, 0, src));
    });
    calls.at(0.37, [&net, src, pattern] {
      net.multicastFromSource(packet(Packet::Type::kData, 1, src), &pattern);
    });
    calls.at(1.13, [&net, &c] {
      net.multicastGroup(c[0], packet(Packet::Type::kRequest, 1, c[0]));
    });
    calls.at(2.29, [&net, &topo, &c] {
      const NodeId scope = ancestorOf(topo, c[1]);
      net.multicastSubtree(scope, c[1],
                           packet(Packet::Type::kRepair, 1, c[1]));
    });
    calls.at(3.71, [&net, &topo, &c, src] {
      net.multicastDownInto(ancestorOf(topo, c[2]),
                            packet(Packet::Type::kRepair, 2, src));
    });
    calls.at(4.43, [&net, &topo, src] {
      net.multicastDownInto(topo.tree.root(),
                            packet(Packet::Type::kRepair, 3, src));
    });
    calls.at(5.02, [&net, &c, src] {
      net.unicast(c[3], c[4], packet(Packet::Type::kRequest, 4, c[3]));
      net.unicast(src, c[5], packet(Packet::Type::kRepair, 4, src));
      net.unicast(c[6], c[6], packet(Packet::Type::kRequest, 5, c[6]));
    });
  };
}

/// The closed form may fire bit-equal arrivals of different sends in another
/// order than the reference, and nothing else: the same arrival times in the
/// same sequence, the same deliveries at each time, the same counters.
void expectSameUpToTies(Outcome fast, Outcome ref) {
  EXPECT_GT(ref.per_hop_events, 0u);
  EXPECT_EQ(fast.per_hop_events, 0u);
  ASSERT_EQ(fast.deliveries.size(), ref.deliveries.size());
  for (std::size_t i = 0; i < fast.deliveries.size(); ++i) {
    EXPECT_EQ(fast.deliveries[i].time, ref.deliveries[i].time);
  }
  const auto by_fields = [](const Delivery& a, const Delivery& b) {
    return fields(a) < fields(b);
  };
  std::sort(fast.deliveries.begin(), fast.deliveries.end(), by_fields);
  std::sort(ref.deliveries.begin(), ref.deliveries.end(), by_fields);
  for (std::size_t i = 0; i < fast.deliveries.size(); ++i) {
    EXPECT_EQ(fields(fast.deliveries[i]), fields(ref.deliveries[i]));
  }
  expectSameStats(fast.stats, ref.stats);
  EXPECT_EQ(fast.link_loads, ref.link_loads);
  expectSameTrace(fast.trace, ref.trace);
}

class ClosedFormRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosedFormRandomTest, EverySendKindMatchesReference) {
  const net::Topology topo = randomTopology(GetParam(), 90);
  ASSERT_GE(topo.clients.size(), 7u);
  const Outcome fast =
      expectClosedFormMatchesReference(topo, 0.0, everySendKind(topo, 17));
  EXPECT_EQ(fast.per_hop_events, 0u);  // every send was lossless
}

TEST_P(ClosedFormRandomTest, FaultedAgentsMatchReference) {
  // Cursor deliveries go through the same fault triage: a crashed agent
  // drops everything, a stalled one drops REQUESTs, and a slowed one gets
  // its REQUESTs through a delayed direct delivery.
  const net::Topology topo = randomTopology(GetParam() + 300, 90);
  const auto& c = topo.clients;
  ASSERT_GE(c.size(), 10u);
  const Scenario sends = everySendKind(topo, 29);
  const Scenario scenario = [&c, sends](auto& net,
                                        test_support::ScheduledCalls& calls) {
    net.setAgentFault(c[7], AgentFault::kCrashed);
    net.setAgentFault(c[8], AgentFault::kStalled);
    net.setAgentFault(c[9], AgentFault::kSlowed, 2.5);
    net.setAgentFault(c[4], AgentFault::kSlowed, 0.75);  // a unicast target
    sends(net, calls);
  };
  const Outcome fast = expectClosedFormMatchesReference(topo, 0.0, scenario);
  EXPECT_EQ(fast.per_hop_events, 0u);
}

TEST_P(ClosedFormRandomTest, ForcedPatternFloodsOnLossyNetworkMatchReference) {
  // With recovery loss on, every send still takes the closed form: the
  // forced-pattern data floods read their pattern, and the other sends
  // decide each link by its keyed draw.
  const net::Topology topo = randomTopology(GetParam() + 100, 90);
  ASSERT_GE(topo.clients.size(), 7u);
  const Outcome fast =
      expectClosedFormMatchesReference(topo, 0.1, everySendKind(topo, 23));
  EXPECT_EQ(fast.per_hop_events, 0u);
  EXPECT_GT(fast.stats.packets_lost, 0u);
}

/// Two group-flood REQUESTs.  Every third client one reaches answers from
/// inside its delivery with a unicast to the source, a group flood from the
/// next client and a down-into flood above the one after, so the flood
/// arena grows while a cursor is being delivered.
std::pair<Scenario, Reaction> handlerStartedSends(const net::Topology& topo) {
  const auto& clients = topo.clients;
  const Scenario scenario = [&clients](auto& net,
                                       test_support::ScheduledCalls& calls) {
    calls.at(0.5, [&net, &clients] {
      net.multicastGroup(clients[0],
                         packet(Packet::Type::kRequest, 7, clients[0]));
    });
    calls.at(2.25, [&net, &clients] {
      net.multicastGroup(clients[1],
                         packet(Packet::Type::kRequest, 8, clients[1]));
    });
  };
  const Reaction react = [&clients, &topo](auto& net, NodeId at,
                                           const Packet& p) {
    if (p.type != Packet::Type::kRequest || p.tag != 0) return;
    const auto it = std::lower_bound(clients.begin(), clients.end(), at);
    if (it == clients.end() || *it != at) return;  // the source
    const auto index = static_cast<std::size_t>(it - clients.begin());
    if (index % 3 != 0) return;
    net.unicast(at, topo.source, packet(Packet::Type::kRepair, p.seq, at, 1));
    const NodeId next = clients[(index + 1) % clients.size()];
    net.multicastGroup(next, packet(Packet::Type::kRepair, p.seq, next, 2));
    const NodeId after = clients[(index + 2) % clients.size()];
    net.multicastDownInto(ancestorOf(topo, after),
                          packet(Packet::Type::kRepair, p.seq, after, 3));
  };
  return {scenario, react};
}

TEST_P(ClosedFormRandomTest, HandlerStartingSendsMidDeliveryMatchesReference) {
  // Losslessly, no two of these sends leave one node at one time or retrace
  // each other's links in reverse (which would make their arrivals tie; see
  // the file comment), so the order is exact.
  const net::Topology topo = randomTopology(GetParam() + 200, 90);
  ASSERT_GE(topo.clients.size(), 4u);
  const auto [scenario, react] = handlerStartedSends(topo);
  const Outcome fast =
      expectClosedFormMatchesReference(topo, 0.0, scenario, react);
  EXPECT_EQ(fast.per_hop_events, 0u);
  EXPECT_GT(fast.stats.packets_sent, 2u + topo.clients.size() / 3);
}

TEST_P(ClosedFormRandomTest, HandlerStartedSendsOnLossyNetworkMatchReference) {
  // With 10% recovery loss, other clients answer, and two answers may cross
  // the same links in opposite directions from one instant: only those
  // arrivals may swap.  Each send a handler starts takes its node's next key
  // on both paths, so both lose the same links.
  const net::Topology topo = randomTopology(GetParam() + 400, 90);
  ASSERT_GE(topo.clients.size(), 4u);
  const auto [scenario, react] = handlerStartedSends(topo);
  const Outcome fast = simulate(topo, 0.1, false, scenario, react);
  expectSameUpToTies(fast, simulate(topo, 0.1, true, scenario, react));
  EXPECT_GT(fast.stats.packets_sent, 2u + topo.clients.size() / 3);
  EXPECT_GT(fast.stats.packets_lost, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedFormRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

/// Link chaos staged before `sends`: every seventh tree link is down 2.5 ms
/// of every 5 ms over the first 60 ms, and a middle link of the c[3] ->
/// c[4] unicast route flaps once; `dup` and `jitter_ms` apply to every
/// link.
Scenario withChaos(const net::Topology& topo, Scenario sends, double dup,
                   double jitter_ms) {
  return [&topo, sends, dup, jitter_ms](auto& net,
                                        test_support::ScheduledCalls& calls) {
    const auto& members = topo.tree.members();
    for (std::size_t m = 1; m < members.size(); m += 7) {
      const NodeId child = members[m];
      const NodeId parent = topo.tree.parent(child);
      const TimeMs start = 0.3 + 0.41 * static_cast<TimeMs>(m % 11);
      for (int cycle = 0; cycle < 12; ++cycle) {
        const TimeMs down = start + 5.0 * cycle;
        net.stageLinkState(parent, child, down, /*up=*/false);
        net.stageLinkState(parent, child, down + 2.5, /*up=*/true);
      }
    }
    const net::Routing routing(topo.graph);
    std::vector<NodeId> route;
    routing.pathInto(topo.clients[3], topo.clients[4], route);
    const std::size_t mid = (route.size() - 1) / 2;
    if (!topo.tree.contains(route[mid + 1]) ||
        topo.tree.parent(route[mid + 1]) != route[mid]) {
      if (!topo.tree.contains(route[mid]) ||
          topo.tree.parent(route[mid]) != route[mid + 1]) {
        net.stageLinkState(route[mid], route[mid + 1], 4.9, false);
        net.stageLinkState(route[mid], route[mid + 1], 5.3, true);
      }
    }
    if (dup > 0.0) net.setAllLinksDuplicationProb(dup);
    if (jitter_ms > 0.0) net.setAllLinksJitterMs(jitter_ms);
    sends(net, calls);
  };
}

class ClosedFormChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosedFormChaosTest, FlapTimelineMatchesReference) {
  // Flaps alone keep every delay static: the exact order must hold, and
  // down links must actually have eaten packets.
  const net::Topology topo = randomTopology(GetParam() + 500, 90);
  ASSERT_GE(topo.clients.size(), 7u);
  const Outcome fast = expectClosedFormMatchesReference(
      topo, 0.1, withChaos(topo, everySendKind(topo, 31), 0.0, 0.0));
  EXPECT_EQ(fast.per_hop_events, 0u);
  EXPECT_GT(fast.stats.chaos_link_drops, 0u);
}

TEST_P(ClosedFormChaosTest, DuplicationAndJitterMatchReference) {
  // Jittered copies and originals never tie, so the exact order holds:
  // every copy walks or floods beyond its link with its own key.
  const net::Topology topo = randomTopology(GetParam() + 600, 90);
  ASSERT_GE(topo.clients.size(), 7u);
  const Outcome fast = expectClosedFormMatchesReference(
      topo, 0.1, withChaos(topo, everySendKind(topo, 37), 0.3, 1.5));
  EXPECT_EQ(fast.per_hop_events, 0u);
  EXPECT_GT(fast.stats.duplicates_created, 0u);
  EXPECT_GT(fast.stats.chaos_link_drops, 0u);
}

TEST_P(ClosedFormChaosTest, UnjitteredDuplicatesReorderOnlyTies) {
  // Without jitter a copy arrives with its original, bit for bit: a copy
  // is a send of its own, so only those ties may swap.
  const net::Topology topo = randomTopology(GetParam() + 700, 90);
  ASSERT_GE(topo.clients.size(), 7u);
  const Scenario scenario =
      withChaos(topo, everySendKind(topo, 41), 0.25, 0.0);
  const Outcome fast = simulate(topo, 0.05, false, scenario);
  expectSameUpToTies(fast, simulate(topo, 0.05, true, scenario));
  EXPECT_GT(fast.stats.duplicates_created, 0u);
}

TEST_P(ClosedFormChaosTest, HandlerStartedSendsUnderChaosMatchReference) {
  const net::Topology topo = randomTopology(GetParam() + 800, 90);
  ASSERT_GE(topo.clients.size(), 7u);
  const auto [sends, react] = handlerStartedSends(topo);
  const Scenario scenario = withChaos(topo, sends, 0.05, 0.8);
  const Outcome fast =
      expectClosedFormMatchesReference(topo, 0.0, scenario, react);
  EXPECT_EQ(fast.per_hop_events, 0u);
  EXPECT_GT(fast.stats.duplicates_created, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedFormChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5));

enum class SendKind {
  kGroup,
  kSubtree,
  kDownInto,
  kSource,
  kForcedSource,
  kUnicast,
};

class ClosedFormUnitDelayTest : public ::testing::TestWithParam<SendKind> {};

TEST_P(ClosedFormUnitDelayTest, TiedArrivalsKeepReferenceOrder) {
  // One send per run: within a flood, the per-flood crossing seq replays
  // the reference's insertion order, so equal-time arrivals fire in the
  // same order on both paths.
  const net::Topology topo = unitDelayTree();
  const SendKind kind = GetParam();
  const Scenario scenario = [&topo, kind](auto& net,
                                          test_support::ScheduledCalls&) {
    // An internal agent whose parent and children are routers, so arrivals
    // through both tie with each other.
    const NodeId agent = label(5);
    switch (kind) {
      case SendKind::kGroup:
        net.multicastGroup(agent, packet(Packet::Type::kRequest, 1, agent));
        break;
      case SendKind::kSubtree:
        net.multicastSubtree(label(1), agent,
                             packet(Packet::Type::kRepair, 1, agent));
        break;
      case SendKind::kDownInto:
        net.multicastDownInto(label(2), packet(Packet::Type::kRepair, 1, 0));
        break;
      case SendKind::kSource:
        net.multicastFromSource(packet(Packet::Type::kData, 1, 0));
        break;
      case SendKind::kForcedSource: {
        LinkLossPattern pattern(topo.tree.numMembers(), false);
        pattern[topo.tree.memberIndex(label(6))] = true;
        pattern[topo.tree.memberIndex(label(12))] = true;
        net.multicastFromSource(packet(Packet::Type::kData, 1, 0), &pattern);
        break;
      }
      case SendKind::kUnicast:
        net.unicast(label(100), label(60),
                    packet(Packet::Type::kRequest, 1, label(100)));
        net.unicast(0, label(90), packet(Packet::Type::kRepair, 1, 0));
        break;
    }
  };
  const Outcome fast = expectClosedFormMatchesReference(topo, 0.0, scenario);
  EXPECT_EQ(fast.per_hop_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ClosedFormUnitDelayTest,
    ::testing::Values(SendKind::kGroup, SendKind::kSubtree,
                      SendKind::kDownInto, SendKind::kSource,
                      SendKind::kForcedSource, SendKind::kUnicast));

class ClosedFormLossyKindTest : public ::testing::TestWithParam<SendKind> {};

TEST_P(ClosedFormLossyKindTest, LossySendsMatchReference) {
  // Sixteen sends of one kind on a 10%-lossy network, each from its own
  // client at its own time.  A lost unicast stops at the lost hop and a
  // lost flood link cuts off the subtree behind it, on both paths.
  const net::Topology topo = randomTopology(41, 90);
  const auto& c = topo.clients;
  ASSERT_GE(c.size(), 16u);
  const SendKind kind = GetParam();
  const Scenario scenario = [&topo, &c, kind](
                                auto& net,
                                test_support::ScheduledCalls& calls) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      const NodeId from = c[i];
      const auto at = static_cast<TimeMs>(i) * 0.83;
      calls.at(at, [&net, &topo, &c, kind, from, i] {
        switch (kind) {
          case SendKind::kGroup:
            net.multicastGroup(from, packet(Packet::Type::kRequest, i, from));
            break;
          case SendKind::kSubtree:
            net.multicastSubtree(ancestorOf(topo, from), from,
                                 packet(Packet::Type::kRepair, i, from));
            break;
          case SendKind::kDownInto:
            net.multicastDownInto(
                ancestorOf(topo, from),
                packet(Packet::Type::kRepair, i, topo.source));
            break;
          case SendKind::kSource:
            net.multicastFromSource(
                packet(Packet::Type::kParity, i, topo.source));
            break;
          case SendKind::kForcedSource:
            break;
          case SendKind::kUnicast:
            net.unicast(from, c[(i + 7) % c.size()],
                        packet(Packet::Type::kRequest, i, from));
            break;
        }
      });
    }
  };
  const Outcome fast = expectClosedFormMatchesReference(topo, 0.1, scenario);
  EXPECT_EQ(fast.per_hop_events, 0u);
  EXPECT_GT(fast.stats.packets_lost, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ClosedFormLossyKindTest,
                         ::testing::Values(SendKind::kGroup,
                                           SendKind::kSubtree,
                                           SendKind::kDownInto,
                                           SendKind::kSource,
                                           SendKind::kUnicast));

TEST(ClosedFormContractTest, SimultaneousFloodsReorderOnlyTies) {
  // Two floods from one node at one time tie at every arrival.
  const net::Topology topo = unitDelayTree();
  const Scenario scenario = [](auto& net,
                               test_support::ScheduledCalls&) {
    net.multicastGroup(label(5), packet(Packet::Type::kRequest, 1, label(5)));
    net.multicastGroup(label(5), packet(Packet::Type::kRequest, 2, label(5)));
  };
  expectSameUpToTies(simulate(topo, 0.0, false, scenario),
                     simulate(topo, 0.0, true, scenario));
}

TEST(ClosedFormContractTest, ReentrantUnicastsReorderOnlyTies) {
  // Every agent a unit-delay flood reaches unicasts back to the source from
  // inside its delivery; those unicasts tie with each other at the source.
  const net::Topology topo = unitDelayTree();
  const Scenario scenario = [](auto& net,
                               test_support::ScheduledCalls&) {
    net.multicastGroup(label(5), packet(Packet::Type::kRequest, 1, label(5)));
  };
  const Reaction react = [&topo](auto& net, NodeId at,
                                 const Packet& p) {
    if (p.tag == 0 && at != topo.source) {
      net.unicast(at, topo.source, packet(Packet::Type::kRepair, 2, at, 1));
    }
  };
  expectSameUpToTies(simulate(topo, 0.0, false, scenario, react),
                     simulate(topo, 0.0, true, scenario, react));
}

}  // namespace
}  // namespace rmrn::sim
