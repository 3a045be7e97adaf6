// Test-only differential harness: runs one scenario on SimNetwork's closed
// form and on the hop-by-hop reference (support/hop_network.hpp), each with
// a TraceRecorder attached, and compares what they delivered, counted and
// traced (DESIGN.md §10.2).  closed_form_test and flood_schedule_test share
// it.
#pragma once

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
#include "sim/keyed_loss.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/delivery_fn.hpp"
#include "support/hop_network.hpp"
#include "support/scheduled_calls.hpp"
#include "util/rng.hpp"

namespace rmrn::test_support {

using net::NodeId;
using sim::EventKind;
using sim::lossSeedOf;
using sim::NetworkStats;
using sim::Packet;
using sim::SimNetwork;
using sim::Simulator;
using sim::TimeMs;
using sim::TraceEvent;
using sim::TraceRecorder;

struct Delivery {
  TimeMs time;
  NodeId at;
  Packet packet;
};

inline auto fields(const Delivery& d) {
  return std::make_tuple(d.time, d.at, d.packet.type, d.packet.seq,
                         d.packet.origin, d.packet.requester, d.packet.tag);
}

struct Outcome {
  std::vector<Delivery> deliveries;
  NetworkStats stats;
  std::vector<std::uint64_t> link_loads;  // by (a < b) edge, node order
  std::vector<TraceEvent> trace;          // TraceRecorder's order
  /// Events the transport fired: one per link crossed on the reference,
  /// one per delivery on the closed form.
  std::uint64_t network_events = 0;
  /// Reference only: of network_events, those that deliver or would
  /// deliver a packet (HopNetwork::arrivalEvents()).
  std::uint64_t arrival_events = 0;
  /// Closed form only: floods that replayed their origin's schedule.
  std::uint64_t floods_replayed = 0;
  /// Stepped runs only: run(until) windows that ended with a flood cursor
  /// pending, i.e. in the middle of a flood's walk.
  std::uint64_t windows_cut = 0;
};

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

/// Runs `scenario` to completion, in run(until) windows `window` long when
/// `window` is positive.
template <typename Net>
Outcome run(const net::Topology& topo, double loss_prob,
            const Scenario& scenario, const Reaction& react, TimeMs window) {
  const net::Routing routing(topo.graph);
  Simulator sim;
  Net network(sim, topo, routing, loss_prob, lossSeedOf(util::Rng(5)));
  TraceRecorder recorder;
  network.setTraceSink(&recorder);
  Outcome out;
  test_support::DeliveryFn on_deliver([&](NodeId at, const Packet& packet) {
    out.deliveries.push_back({sim.now(), at, packet});
    if (react) react(network, at, packet);
  });
  network.setDeliverySink(&on_deliver);
  test_support::ScheduledCalls calls(sim);
  scenario(network, calls);
  if (window > 0.0) {
    for (TimeMs until = window; !sim.idle(); until += window) {
      sim.run(until);
      if (sim.pendingCursors() > 0) ++out.windows_cut;
    }
  } else {
    sim.run();
  }
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
    out.network_events = network.events();
    out.arrival_events = network.arrivalEvents();
  } else {
    out.network_events = sim.eventsProcessed(EventKind::kDeliver) +
                         sim.eventsProcessed(EventKind::kFloodCursor);
    out.floods_replayed = network.floodsReplayed();
  }
  return out;
}

inline Outcome simulate(const net::Topology& topo, double loss_prob,
                        bool reference, const Scenario& scenario,
                        const Reaction& react = {}, TimeMs window = 0.0) {
  return reference ? run<HopNetwork>(topo, loss_prob, scenario, react, window)
                   : run<SimNetwork>(topo, loss_prob, scenario, react, window);
}

/// The same records: both are in TraceRecorder's canonical order, which
/// does not depend on when a transport emits a record, so they match
/// record by record.
inline void expectSameTrace(const std::vector<TraceEvent>& fast,
                            const std::vector<TraceEvent>& ref) {
  const auto [f, r] =
      std::mismatch(fast.begin(), fast.end(), ref.begin(), ref.end());
  EXPECT_TRUE(f == fast.end() && r == ref.end())
      << "traces of " << fast.size() << " and " << ref.size()
      << " records differ at record #" << (f - fast.begin());
}

/// The reference fires an event at every hop; the closed form fires one at
/// each of the reference's arrivals and none at a hop.
inline void expectEventPerArrival(const Outcome& fast, const Outcome& ref) {
  EXPECT_GT(ref.network_events, ref.arrival_events);
  EXPECT_EQ(fast.network_events, ref.arrival_events);
}

inline void expectSameStats(const NetworkStats& a, const NetworkStats& b) {
  EXPECT_EQ(a.data_hops, b.data_hops);
  EXPECT_EQ(a.recovery_hops, b.recovery_hops);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.chaos_link_drops, b.chaos_link_drops);
  EXPECT_EQ(a.duplicates_created, b.duplicates_created);
}

/// Runs `scenario` on both paths (the closed form in run(until) windows
/// `window` long when it is positive) and requires identical outcomes.
/// Returns the closed-form run for scenario-specific checks.
inline Outcome expectClosedFormMatchesReference(const net::Topology& topo,
                                                double loss_prob,
                                                const Scenario& scenario,
                                                const Reaction& react = {},
                                                TimeMs window = 0.0) {
  const Outcome fast =
      simulate(topo, loss_prob, false, scenario, react, window);
  const Outcome ref = simulate(topo, loss_prob, true, scenario, react);
  expectEventPerArrival(fast, ref);
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

inline net::Topology randomTopology(std::uint64_t seed, std::uint32_t nodes) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = nodes;
  return net::generateTopology(config, rng);
}

inline Packet packet(Packet::Type type, std::uint64_t seq, NodeId origin,
                     std::uint64_t tag = 0) {
  return Packet{type, seq, origin, origin, tag};
}

}  // namespace rmrn::test_support
