#include "protocols/srm_protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <tuple>
#include <vector>

#include "proto_fixture.hpp"
#include "sim/fault_injector.hpp"
#include "sim/trace.hpp"
#include "support/delivery_fn.hpp"
#include "support/scheduled_calls.hpp"

namespace rmrn::protocols {
namespace {

using testutil::ProtoHarness;

struct SrmHarness : ProtoHarness {
  SrmProtocol protocol;

  explicit SrmHarness(double loss_prob = 0.0, std::uint64_t seed = 1,
                      SrmConfig srm = {})
      : ProtoHarness(loss_prob, seed),
        protocol(network, metrics, ProtocolConfig{}, srm, seed + 1000) {
    protocol.attach();
  }
};

TEST(SrmProtocolTest, NoLossNoTraffic) {
  SrmHarness h;
  h.protocol.sourceMulticast(0, h.noLoss());
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 0u);
  EXPECT_EQ(h.protocol.requestsMulticast(), 0u);
  EXPECT_EQ(h.protocol.repairsMulticast(), 0u);
  EXPECT_EQ(h.network.stats().recovery_hops, 0u);
}

TEST(SrmProtocolTest, SingleLossRecoversViaMulticastRepair) {
  SrmHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 1u);
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_GE(h.protocol.requestsMulticast(), 1u);
  EXPECT_GE(h.protocol.repairsMulticast(), 1u);
  EXPECT_TRUE(h.sim.idle());
}

TEST(SrmProtocolTest, RepairSuppressionLimitsRepairs) {
  // One lost packet, many potential repairers (source + 3 holders): the
  // repair-suppression timers plus the hold window must keep the repair
  // count low (one repair already reaches everyone on a loss-free run).
  // How many timers fire before the first repair lands is the draw's, so
  // this checks 2,000 seeds.  In every run no member repairs twice (3 hears
  // every repair, so its deliveries count them by sender).  At most one run
  // in eight sends more than two (11.85% of these seeds do).  On average at
  // least half the repairers stay silent.
  constexpr std::uint64_t kSeeds = 2000;
  std::uint64_t repairs = 0;
  std::uint64_t over_two = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SrmHarness h(0.0, seed);
    sim::TraceRecorder recorder;
    h.network.setTraceSink(&recorder);
    h.protocol.sourceMulticast(0, h.lossInto({3}));
    h.sim.run();
    EXPECT_EQ(h.metrics.recoveries(), 1u);
    std::vector<std::uint64_t> by_sender(h.topo.graph.numNodes(), 0);
    for (const sim::TraceEvent& e : recorder.events()) {
      if (e.kind == sim::TraceEvent::Kind::kDeliver && e.to == 3 &&
          e.packet.type == sim::Packet::Type::kRepair) {
        ++by_sender[e.packet.origin];
      }
    }
    const std::uint64_t sent = h.protocol.repairsMulticast();
    EXPECT_EQ(std::accumulate(by_sender.begin(), by_sender.end(),
                              std::uint64_t{0}),
              sent);
    EXPECT_LE(*std::max_element(by_sender.begin(), by_sender.end()), 1u)
        << "seed " << seed;
    repairs += sent;
    over_two += sent > 2 ? 1 : 0;
  }
  EXPECT_LE(over_two, kSeeds / 8);
  EXPECT_LE(repairs, 2 * kSeeds);
}

TEST(SrmProtocolTest, RequestSuppressionUnderSharedLoss) {
  // Drop 0->1: all four clients lose.  The first multicast NACK suppresses
  // (backs off) the other three; the repair from the source then satisfies
  // everyone.  Expect far fewer than 4 NACKs on a loss-free recovery path.
  SrmHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({1}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.recoveries(), 4u);
  EXPECT_LE(h.protocol.requestsMulticast(), 2u);
  EXPECT_LE(h.protocol.repairsMulticast(), 2u);
}

TEST(SrmProtocolTest, OneRepairHealsAllLosersInSubtree) {
  // Drop 1->5: clients 7, 8 lose.  Any single repair multicast reaches both.
  SrmHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({5}));
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 2u);
  EXPECT_EQ(h.metrics.recoveries(), 2u);
}

TEST(SrmProtocolTest, RecoversUnderLossyRecoveryTraffic) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SrmHarness h(0.20, seed);
    h.protocol.sourceMulticast(0, h.lossInto({1}));
    h.protocol.sourceMulticast(1, h.lossInto({2, 6}));
    h.sim.run();
    EXPECT_TRUE(h.protocol.allRecovered()) << "seed " << seed;
    EXPECT_TRUE(h.sim.idle());
  }
}

TEST(SrmProtocolTest, BandwidthExceedsUnicastSchemes) {
  // Whole-group multicast NACK + repair must traverse >= 2x the tree links
  // for even a single loss (request flood + repair flood).
  SrmHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  const auto tree_links = h.topo.tree.numLinks();
  EXPECT_GE(h.network.stats().recovery_hops, 2 * tree_links - 2);
}

TEST(SrmProtocolTest, LatencyIncludesSuppressionTimer) {
  // SRM's recovery latency is at least the minimum request timer C1 * d
  // plus a round trip; with C1 = 2 it cannot beat the raw RTT.
  SrmHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  ASSERT_EQ(h.metrics.recoveries(), 1u);
  const double d_src = h.routing.distance(3, h.topo.source);
  EXPECT_GE(h.metrics.latency().mean(), 2.0 * d_src);
}

TEST(SrmProtocolTest, MultiplePacketsInterleaved) {
  SrmHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.protocol.sourceMulticast(1, h.lossInto({8}));
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 2u);
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_TRUE(h.protocol.hasPacket(3, 0));
  EXPECT_TRUE(h.protocol.hasPacket(8, 1));
}

TEST(SrmProtocolTest, RejectsBadConfig) {
  ProtoHarness base;
  SrmConfig bad;
  bad.c2 = 0.0;
  EXPECT_THROW(SrmProtocol(base.network, base.metrics, {}, bad, 1),
               std::invalid_argument);
  bad = {};
  bad.d2 = -1.0;
  EXPECT_THROW(SrmProtocol(base.network, base.metrics, {}, bad, 1),
               std::invalid_argument);
}

TEST(SrmProtocolTest, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    SrmHarness h(0.10, seed);
    h.protocol.sourceMulticast(0, h.lossInto({1}));
    h.sim.run();
    return std::tuple{h.metrics.latency().mean(),
                      h.network.stats().recovery_hops,
                      h.protocol.requestsMulticast()};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// --- Absorbed flood arrivals --------------------------------------------
//
// The fixture tree's integer delays tie non-sibling arrivals, so its floods
// keep the frontier and offer nothing.  This one has the same shape with
// delays that are distinct powers of two: every path sums to its own exact
// value, so whole-tree floods replay, and times are exact enough to land an
// arrival on a hold's expiry.
//
//            0 (source)
//            | (1)
//            1
//      (.5) / \ (2)
//          2   5
//   (.25) / \(4)\ (.125)
//        3   4   6
//      (.0625) / \ (8)
//             7   8
net::Topology replayTopology() {
  net::Topology t = testutil::fixtureTopology();
  t.graph = net::Graph(9);
  t.graph.addEdge(0, 1, 1.0);
  t.graph.addEdge(1, 2, 0.5);
  t.graph.addEdge(1, 5, 2.0);
  t.graph.addEdge(2, 3, 0.25);
  t.graph.addEdge(2, 4, 4.0);
  t.graph.addEdge(5, 6, 0.125);
  t.graph.addEdge(6, 7, 0.0625);
  t.graph.addEdge(6, 8, 8.0);
  return t;
}

sim::Packet repairOf(net::NodeId from) {
  return sim::Packet{sim::Packet::Type::kRepair, 0, from, net::kInvalidNode,
                     0};
}
sim::Packet requestOf(net::NodeId from) {
  return sim::Packet{sim::Packet::Type::kRequest, 0, from, from, 0};
}

/// One SRM run on replayTopology() (or `topology`), absorbing arrivals or,
/// with `live`, firing every one through a sink that absorbs none.
struct AbsorbRun {
  ProtoHarness base;
  SrmProtocol protocol;
  test_support::DeliveryFn live_only;
  test_support::ScheduledCalls calls;
  sim::TraceRecorder recorder;

  AbsorbRun(bool live, double loss_prob = 0.0, std::uint64_t seed = 1,
            net::Topology topology = replayTopology(),
            ProtocolConfig config = {}, SrmConfig srm = {})
      : base(loss_prob, seed, std::move(topology)),
        protocol(base.network, base.metrics, config, srm, seed + 1000),
        live_only([this](net::NodeId at, const sim::Packet& packet) {
          protocol.deliver(at, packet);
        }),
        calls(base.sim) {
    protocol.attach();
    if (live) base.network.setDeliverySink(&live_only);
    base.network.setTraceSink(&recorder);
  }

  /// Floods `packet` from `from` at `at`.
  void floodAt(double at, net::NodeId from, const sim::Packet& packet) {
    calls.at(at, [this, from, packet] {
      base.network.multicastGroup(from, packet);
    });
  }
};

/// Everything a run shows: every trace record, in the recorder's canonical
/// order (an absorbed arrival is traced with its arrival time, ahead of the
/// clock), the network counters but the absorbed count, and the protocol's.
struct Observed {
  std::vector<sim::TraceEvent> trace;
  std::vector<std::uint64_t> counters;
  double mean_latency = 0.0;
  std::uint64_t digest = 0;

  explicit Observed(const AbsorbRun& run) : trace(run.recorder.events()) {
    const sim::NetworkStats& s = run.base.network.stats();
    counters = {s.data_hops,
                s.recovery_hops,
                s.packets_sent,
                s.packets_lost,
                s.deliveries,
                run.protocol.requestsMulticast(),
                run.protocol.repairsMulticast(),
                run.protocol.duplicateDeliveries(),
                run.base.metrics.losses(),
                run.base.metrics.recoveries(),
                run.base.metrics.retries()};
    mean_latency = run.base.metrics.latency().mean();
    digest = run.base.metrics.digest();
  }
  bool operator==(const Observed&) const = default;
};

/// Runs `scenario` absorbing and live; expects equal observations and
/// returns the absorbing run's absorbed-arrival count.
std::uint64_t expectAbsorbingMatchesLive(
    const std::function<void(AbsorbRun&)>& scenario, SrmConfig srm = {}) {
  AbsorbRun absorbing(false, 0.0, 1, replayTopology(), {}, srm);
  AbsorbRun live(true, 0.0, 1, replayTopology(), {}, srm);
  for (AbsorbRun* run : {&absorbing, &live}) {
    scenario(*run);
    run->base.sim.run();
  }
  EXPECT_GT(absorbing.base.network.floodsReplayed(), 0u);
  EXPECT_EQ(live.base.network.stats().absorbed_arrivals, 0u);
  EXPECT_TRUE(Observed(absorbing) == Observed(live));
  return absorbing.base.network.stats().absorbed_arrivals;
}

TEST(SrmAbsorbTest, RepairTimerArmedAfterTheFloodStartedIsSuppressed) {
  // Every member holds seq 0.  A repair flood from 8 starts at 20 and
  // reaches 3 at 30.875 and 0 at 31.125, absorbed at 20.  A request from 7
  // at 26 reaches them earlier (28.9375, 29.1875), before any hold, so each
  // arms a repair timer; both fire after the absorbed repair lands, which
  // cancels them: neither sends, and no later draw moves.
  const auto scenario = [](AbsorbRun& run) {
    run.protocol.sourceMulticast(0, run.base.noLoss());
    run.floodAt(20.0, 8, repairOf(8));
    run.floodAt(26.0, 7, requestOf(7));
    // A later request draws again at 3 and 0: any moved draw would show in
    // the times of what follows.
    run.floodAt(60.0, 4, requestOf(4));
  };
  EXPECT_GT(expectAbsorbingMatchesLive(scenario), 0u);
  // The suppressed timers fire, and find themselves cancelled, only when
  // their repair was absorbed.
  const auto timers = [&](bool live) {
    AbsorbRun run(live);
    scenario(run);
    run.base.sim.run();
    return run.base.sim.eventsProcessed(sim::EventKind::kTimer);
  };
  EXPECT_GT(timers(false), timers(true));
}

/// The flood cursors an absorbing run of `scenario` fires.
std::uint64_t absorbingCursors(
    const std::function<void(AbsorbRun&)>& scenario) {
  AbsorbRun run(false);
  scenario(run);
  run.base.sim.run();
  return run.base.sim.eventsProcessed(sim::EventKind::kFloodCursor);
}

/// Every member holds seq 0, and repair floods from 8 (at 20), 4 (at 21)
/// and 7 (at 22) are in flight together: they reach 3 at 30.875, 25.25 and
/// 24.9375, and every other agent once each too.
void threeRepairFloods(AbsorbRun& run) {
  run.protocol.sourceMulticast(0, run.base.noLoss());
  run.floodAt(20.0, 8, repairOf(8));
  run.floodAt(21.0, 4, repairOf(4));
  run.floodAt(22.0, 7, repairOf(7));
}

TEST(SrmAbsorbTest, ThreeOverlappingRepairsToAHolderAreAbsorbed) {
  // 3 keeps all three pending (absorbed out of arrival order), and so does
  // the source; each other agent keeps two.  A request from 7 at 28 lands
  // at 3 at 30.9375, after all three: 3 settles them, holds from 30.875 and
  // returns.
  const auto scenario = [](AbsorbRun& run) {
    threeRepairFloods(run);
    run.floodAt(28.0, 7, requestOf(7));
  };
  // 4 agents in each of the 3 repair floods.
  EXPECT_GE(expectAbsorbingMatchesLive(scenario), 12u);
  // Only the data flood's 4 deliveries fire as cursors.
  EXPECT_EQ(absorbingCursors(threeRepairFloods), 4u);
}

TEST(SrmAbsorbTest, RequestBetweenTwoPendingRepairsReadsTheEarlierHold) {
  // Repairs from 8 (at 20) and 4 (at 21) are pending at 3, landing at
  // 30.875 and 25.25.  25.25's hold runs to 25.25 + 3 * 1.75 = 30.5.  A
  // request from 4 at 26.5 lands at 3 at 30.75, between the two and past
  // the first's hold: it fires, and 3 arms a repair timer that the second
  // arrival (30.875) cancels when it settles.  One from 7 at 25 lands at
  // 27.9375, inside the first's hold; one from 7 at 28 lands at 30.9375,
  // inside the second's.
  const auto scenario = [](AbsorbRun& run) {
    run.protocol.sourceMulticast(0, run.base.noLoss());
    run.floodAt(20.0, 8, repairOf(8));
    run.floodAt(21.0, 4, repairOf(4));
    run.floodAt(25.0, 7, requestOf(7));
    run.floodAt(26.5, 4, requestOf(4));
    run.floodAt(28.0, 7, requestOf(7));
  };
  EXPECT_GT(expectAbsorbingMatchesLive(scenario), 0u);
  AbsorbRun run(false);
  scenario(run);
  sim::DeliverySink& sink = run.protocol;
  bool in_first = false;
  bool between = true;
  bool in_second = false;
  run.calls.at(21.5, [&] {
    in_first = sink.absorb(3, requestOf(7), 27.9375);
    between = sink.absorb(3, requestOf(4), 30.75);
    in_second = sink.absorb(3, requestOf(7), 30.9375);
  });
  run.base.sim.run();
  EXPECT_TRUE(in_first);
  EXPECT_FALSE(between);
  EXPECT_TRUE(in_second);
}

TEST(SrmAbsorbTest, FullPendingListFallsBackToALiveCursor) {
  // Three repairs are pending at 3 when the source's repair, sent at 22.5,
  // reaches it at 24.25, before any of them: the list is full, so that
  // arrival fires, and the three still settle in order after it.  Every
  // other agent gets three repairs and absorbs them all.
  const auto four_repairs = [](AbsorbRun& run) {
    threeRepairFloods(run);
    run.floodAt(22.5, 0, repairOf(0));
  };
  const auto scenario = [&four_repairs](AbsorbRun& run) {
    four_repairs(run);
    run.floodAt(26.5, 4, requestOf(4));
    run.floodAt(28.0, 7, requestOf(7));
  };
  EXPECT_GT(expectAbsorbingMatchesLive(scenario), 0u);
  // The data flood's 4 deliveries and the one repair at 3.
  EXPECT_EQ(absorbingCursors(four_repairs), 5u);
}

TEST(SrmAbsorbTest, SecondRepairInFlightToAHolderStaysLive) {
  // Named when a holder kept one absorbed repair pending; it now keeps
  // three, and a repair in flight past them stays live.  The three repair
  // floods leave 3 with three pending arrivals by 22, so a fourth offered
  // at 22.25 is refused, and the refusal changes nothing.
  const auto scenario = [](AbsorbRun& run) {
    threeRepairFloods(run);
    run.floodAt(26.5, 4, requestOf(4));
    run.floodAt(28.0, 7, requestOf(7));
  };
  EXPECT_GT(expectAbsorbingMatchesLive(scenario), 0u);
  AbsorbRun unprobed(false);
  scenario(unprobed);
  unprobed.base.sim.run();
  AbsorbRun run(false);
  scenario(run);
  sim::DeliverySink& sink = run.protocol;
  bool fourth = true;
  run.calls.at(22.25, [&] { fourth = sink.absorb(3, repairOf(0), 24.25); });
  run.base.sim.run();
  EXPECT_FALSE(fourth);
  EXPECT_TRUE(Observed(run) == Observed(unprobed));
}

TEST(SrmAbsorbTest, RequestAtExactHoldExpiryStaysLive) {
  // 8's repair reaches 3 at 30.875: 3 holds until 30.875 + 3 * 1.75 =
  // 36.125.  A request from 7 takes 2.9375 to reach 3, so one sent at
  // 33.1875 lands exactly at 36.125, where onRequest's `now < hold` fails
  // and 3 arms a repair timer; one sent a tick earlier is covered.  Repair
  // timers are the 1 ms floor here, so whoever arms one repairs: the
  // source (whose hold is 0) and 8 (never held) always do.
  SrmConfig srm;
  srm.d1 = 0.0;
  srm.d2 = 1e-3;
  const auto scenario = [](double request_at) {
    return [request_at](AbsorbRun& run) {
      run.protocol.sourceMulticast(0, run.base.noLoss());
      run.floodAt(20.0, 8, repairOf(8));
      run.floodAt(request_at, 7, requestOf(7));
    };
  };
  expectAbsorbingMatchesLive(scenario(33.1875), srm);
  expectAbsorbingMatchesLive(scenario(33.125), srm);

  const auto repairs = [&](double request_at) {
    AbsorbRun run(false, 0.0, 1, replayTopology(), {}, srm);
    scenario(request_at)(run);
    sim::DeliverySink& sink = run.protocol;
    bool at_expiry = true;
    bool before = false;
    run.calls.at(25.0, [&] {
      at_expiry = sink.absorb(3, requestOf(7), 36.125);
      before = sink.absorb(3, requestOf(7), 36.0625);
    });
    run.base.sim.run();
    EXPECT_FALSE(at_expiry);
    EXPECT_TRUE(before);
    return run.protocol.repairsMulticast();
  };
  EXPECT_EQ(repairs(33.125), 2u);
  EXPECT_EQ(repairs(33.1875), 3u);
}

TEST(SrmAbsorbTest, AbsorbingEqualsLiveOnRandomLossyTrees) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    net::TopologyConfig config;
    config.num_nodes = 40;
    const net::Topology topology = net::generateTopology(config, rng);
    std::unique_ptr<AbsorbRun> runs[2];
    for (int live = 0; live < 2; ++live) {
      runs[live] =
          std::make_unique<AbsorbRun>(live == 1, 0.1, seed, topology);
      AbsorbRun& run = *runs[live];
      util::Rng loss(seed + 7);
      for (std::uint64_t seq = 0; seq < 8; ++seq) {
        sim::LinkLossPattern pattern = run.base.noLoss();
        for (std::size_t m = 1; m < pattern.size(); ++m) {
          pattern[m] = loss.uniform01() < 0.1;
        }
        run.calls.at(static_cast<double>(seq) * 20.0, [&run, seq, pattern] {
          run.protocol.sourceMulticast(seq, pattern);
        });
      }
      run.base.sim.run();
      EXPECT_TRUE(run.protocol.allRecovered());
    }
    EXPECT_GT(runs[0]->base.network.stats().absorbed_arrivals, 0u);
    EXPECT_TRUE(Observed(*runs[0]) == Observed(*runs[1]));
    EXPECT_LT(runs[0]->base.sim.eventsProcessed(),
              runs[1]->base.sim.eventsProcessed());
  }
}

TEST(SrmAbsorbTest, SweptPendingArrivalsEqualLive) {
  // On a larger tree many holders keep two or three repairs pending at
  // once, most of them past due with no handler left to settle them, so
  // the side table is swept of due entries before it grows.  The sweep
  // applies them as settling would: every observation still equals the run
  // that absorbs nothing.
  util::Rng rng(11);
  net::TopologyConfig config;
  config.num_nodes = 200;
  const net::Topology topology = net::generateTopology(config, rng);
  std::unique_ptr<AbsorbRun> runs[2];
  for (int live = 0; live < 2; ++live) {
    runs[live] = std::make_unique<AbsorbRun>(live == 1, 0.05, 11, topology);
    AbsorbRun& run = *runs[live];
    util::Rng loss(17);
    for (std::uint64_t seq = 0; seq < 24; ++seq) {
      sim::LinkLossPattern pattern = run.base.noLoss();
      for (std::size_t m = 1; m < pattern.size(); ++m) {
        pattern[m] = loss.uniform01() < 0.05;
      }
      run.calls.at(static_cast<double>(seq) * 5.0, [&run, seq, pattern] {
        run.protocol.sourceMulticast(seq, pattern);
      });
    }
    run.base.sim.run();
    EXPECT_TRUE(run.protocol.allRecovered());
  }
  EXPECT_GT(runs[0]->base.network.stats().absorbed_arrivals, 10'000u);
  EXPECT_TRUE(Observed(*runs[0]) == Observed(*runs[1]));
}

TEST(SrmAbsorbTest, ChaosFaultPlansAndPeerHealthAbsorbNothing) {
  const auto traffic = [](AbsorbRun& run) {
    run.protocol.sourceMulticast(0, run.base.lossInto({4}));
    run.floodAt(20.0, 8, repairOf(8));
    run.floodAt(26.0, 7, requestOf(7));
    run.base.sim.run();
    EXPECT_GT(run.base.network.floodsReplayed(), 0u);
    EXPECT_EQ(run.base.network.stats().absorbed_arrivals, 0u);
  };
  {
    SCOPED_TRACE("link chaos");
    AbsorbRun run(false);
    run.base.network.stageLinkState(2, 4, 1000.0, /*up=*/false);
    traffic(run);
  }
  {
    SCOPED_TRACE("armed fault plan");
    AbsorbRun run(false);
    sim::FaultPlan plan;
    plan.crash_fraction = 0.25;
    plan.at_ms = 1000.0;
    sim::FaultInjector injector(run.base.network, plan);
    injector.arm();
    traffic(run);
  }
  {
    SCOPED_TRACE("health.enabled");
    ProtocolConfig config;
    config.health.enabled = true;
    AbsorbRun run(false, 0.0, 1, replayTopology(), config);
    traffic(run);
  }
  {
    SCOPED_TRACE("none of them");
    AbsorbRun run(false);
    run.protocol.sourceMulticast(0, run.base.lossInto({4}));
    run.floodAt(20.0, 8, repairOf(8));
    run.base.sim.run();
    EXPECT_GT(run.base.network.stats().absorbed_arrivals, 0u);
  }
}

}  // namespace
}  // namespace rmrn::protocols
