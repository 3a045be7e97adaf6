// ParallelEngine (DESIGN.md §14): Stats describe one run() call, so a run
// split across calls reports counts that sum to the one-call run's; and a
// unicast crosses regions once, as its delivery, however many region
// boundaries its route crosses.
#include "sim/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "harness/world.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/network.hpp"
#include "sim/region_map.hpp"
#include "sim/simulator.hpp"
#include "support/delivery_fn.hpp"
#include "util/rng.hpp"

namespace rmrn::harness {
namespace {

using Stats = sim::ParallelEngine::Stats;

/// A lossy RP transfer on the parallel engine, built by RegionRun, with the
/// engine left to the test to drive.
class EngineRig {
 public:
  explicit EngineRig(const net::Topology& topology,
                     std::uint32_t target_regions = 4)
      : routing_(topology.graph),
        regions_(topology, target_regions),
        patterns_(drawLossPatterns(topology, kLoss, 1.0, kPackets,
                                   util::Rng(11))),
        planner_(buildPlanner(ProtocolKind::kRp, topology, routing_,
                              config_.rp_planner, config_.protocol_config)),
        run_({.topology = topology,
              .routing = routing_,
              .planner = planner_.get(),
              .patterns = patterns_,
              .interval_ms = config_.packet_interval_ms,
              .scheme = {ProtocolKind::kRp, config_.protocol_config,
                         config_.srm, config_.parity, config_.coded,
                         config_.rp_source_mode},
              .recovery_loss = kLoss,
              .loss_seed = kLossSeed,
              .faults = nullptr,
              .scheme_seed = 200},
             regions_, /*workers=*/2) {}

  sim::ParallelEngine& engine() { return run_.engine(); }

  /// The horizon the engine's next epoch will use: the earliest pending
  /// event or undelivered handoff, plus the lookahead.
  [[nodiscard]] sim::TimeMs nextHorizon() {
    sim::TimeMs next = sim::Simulator::kForever;
    for (std::uint32_t r = 0; r < regions_.numRegions(); ++r) {
      next = std::min(next, run_.world(r).simulator.nextEventTime());
      for (const sim::RoutedHandoff& routed : engine().outboxFor(r)) {
        next = std::min(next, routed.handoff.at);
      }
    }
    return next + regions_.lookaheadMs();
  }

  [[nodiscard]] std::uint64_t handoffsEmitted() const {
    std::uint64_t sum = 0;
    for (std::uint32_t r = 0; r < regions_.numRegions(); ++r) {
      sum += run_.world(r).network.handoffsEmitted();
    }
    return sum;
  }
  [[nodiscard]] std::uint64_t floodsReplayed() const {
    std::uint64_t sum = 0;
    for (std::uint32_t r = 0; r < regions_.numRegions(); ++r) {
      sum += run_.world(r).network.floodsReplayed();
    }
    return sum;
  }
  [[nodiscard]] std::size_t recoveries() const {
    std::size_t sum = 0;
    for (std::uint32_t r = 0; r < regions_.numRegions(); ++r) {
      sum += run_.world(r).recovery.recoveries();
    }
    return sum;
  }

 private:
  static constexpr double kLoss = 0.1;
  static constexpr std::uint64_t kLossSeed = 100;
  static constexpr std::uint32_t kPackets = 20;

  TransferConfig config_;
  net::Routing routing_;
  sim::RegionMap regions_;
  std::vector<sim::LinkLossPattern> patterns_;
  std::unique_ptr<core::RpPlanner> planner_;
  RegionRun run_;
};

net::Topology makeTopology() {
  util::Rng rng(5);
  net::TopologyConfig config;
  config.num_nodes = 80;
  return net::generateTopology(config, rng);
}

void accumulate(Stats& sum, const Stats& part) {
  sum.epochs += part.epochs;
  sum.handoffs += part.handoffs;
  sum.events += part.events;
  sum.region_runs += part.region_runs;
}

TEST(ParallelEngineTest, SplitRunStatsSumToOneCallRun) {
  const net::Topology topology = makeTopology();
  EngineRig whole(topology);
  const Stats one = whole.engine().run();
  ASSERT_GT(one.epochs, 10u);
  ASSERT_GT(one.handoffs, 0u);
  EXPECT_EQ(one.handoffs, whole.handoffsEmitted());
  EXPECT_GE(one.region_runs, one.epochs);
  EXPECT_LE(one.region_runs, one.epochs * one.regions);

  // Stopping exactly at the horizon the one-call run would reach keeps its
  // barrier schedule, so each step is one of its epochs.  (A handoff landing
  // exactly on that horizon would add an epoch; the step check rules it out
  // for this seed.)
  EngineRig split(topology);
  Stats sum;
  for (int step = 0; step < 10; ++step) {
    const Stats part = split.engine().run(split.nextHorizon());
    ASSERT_EQ(part.epochs, 1u) << "step " << step;
    accumulate(sum, part);
  }
  accumulate(sum, split.engine().run());

  EXPECT_EQ(sum.epochs, one.epochs);
  EXPECT_EQ(sum.handoffs, one.handoffs);
  EXPECT_EQ(sum.events, one.events);
  EXPECT_EQ(sum.region_runs, one.region_runs);
  EXPECT_EQ(split.handoffsEmitted(), whole.handoffsEmitted());
  EXPECT_EQ(split.recoveries(), whole.recoveries());
}

TEST(ParallelEngineTest, OneRegionRunTakesNoShardModeAndReplaysFloods) {
  // One region is the serial closed form: its data floods replay their
  // per-origin schedule.  Shard mode stops floods at region edges, so no
  // region of a multi-region run replays one.
  const net::Topology topology = makeTopology();
  EngineRig one(topology, /*target_regions=*/1);
  const Stats serial = one.engine().run();
  EXPECT_EQ(serial.regions, 1u);
  EXPECT_GT(one.floodsReplayed(), 0u);

  EngineRig sharded(topology);
  const Stats parallel = sharded.engine().run();
  ASSERT_GE(parallel.regions, 2u);
  EXPECT_EQ(sharded.floodsReplayed(), 0u);
  EXPECT_EQ(sharded.recoveries(), one.recoveries());
}

/// A delivery seen by a network's handler: where, when, and in which region.
struct Arrival {
  net::NodeId at;
  sim::TimeMs time;
  std::uint32_t region;
};

/// One bare shard-mode network per region on one engine, lossless, with
/// every delivery recorded; a unicast is sent straight from its sender's
/// region before the engine runs.
class ShardNetworks {
 public:
  ShardNetworks(const net::Topology& topology, const net::Routing& routing,
                const sim::RegionMap& regions, double dup_prob)
      : regions_(regions), engine_(regions, /*workers=*/1) {
    for (std::uint32_t r = 0; r < regions.numRegions(); ++r) {
      auto& simulator = *simulators_.emplace_back(
          std::make_unique<sim::Simulator>());
      auto& network = *networks_.emplace_back(
          std::make_unique<sim::SimNetwork>(simulator, topology, routing, 0.0,
                                            kLossSeed));
      network.enableShardMode(regions, r, &engine_.outboxFor(r));
      if (dup_prob > 0.0) network.setAllLinksDuplicationProb(dup_prob);
      auto& on_deliver = *sinks_.emplace_back(
          std::make_unique<test_support::DeliveryFn>(
              [this, r, &simulator](net::NodeId at, const sim::Packet&) {
                arrivals_.push_back(Arrival{at, simulator.now(), r});
              }));
      network.setDeliverySink(&on_deliver);
      engine_.attach(r, &simulator, &network);
    }
  }

  /// Sends from `from`'s region and runs the engine to completion.
  Stats send(net::NodeId from, net::NodeId to) {
    networks_[regions_.regionOf(from)]->unicast(from, to, request(from));
    return engine_.run();
  }

  [[nodiscard]] const std::vector<Arrival>& arrivals() const {
    return arrivals_;
  }
  [[nodiscard]] std::uint64_t eventsIn(std::uint32_t r) const {
    return simulators_[r]->eventsProcessed();
  }
  [[nodiscard]] const sim::NetworkStats& statsOf(std::uint32_t r) const {
    return networks_[r]->stats();
  }

  static sim::Packet request(net::NodeId from) {
    return sim::Packet{sim::Packet::Type::kRequest, 1, from, from, 0};
  }
  static constexpr std::uint64_t kLossSeed = 42;

 private:
  const sim::RegionMap& regions_;
  sim::ParallelEngine engine_;
  std::vector<std::unique_ptr<sim::Simulator>> simulators_;
  std::vector<std::unique_ptr<sim::SimNetwork>> networks_;
  std::vector<std::unique_ptr<test_support::DeliveryFn>> sinks_;
  std::vector<Arrival> arrivals_;
};

/// The serial closed form's delivery times of one unicast.
std::vector<sim::TimeMs> serialArrivals(const net::Topology& topology,
                                        const net::Routing& routing,
                                        net::NodeId from, net::NodeId to,
                                        double dup_prob) {
  sim::Simulator simulator;
  sim::SimNetwork network(simulator, topology, routing, 0.0,
                          ShardNetworks::kLossSeed);
  if (dup_prob > 0.0) network.setAllLinksDuplicationProb(dup_prob);
  std::vector<sim::TimeMs> times;
  test_support::DeliveryFn on_deliver([&](net::NodeId, const sim::Packet&) {
    times.push_back(simulator.now());
  });
  network.setDeliverySink(&on_deliver);
  network.unicast(from, to, ShardNetworks::request(from));
  simulator.run();
  return times;
}

/// Agent pairs and their routes on a topology of at least three regions.
class ShardRoutes {
 public:
  ShardRoutes()
      : topology_(makeTopology()),
        routing_(topology_.graph),
        regions_(topology_, /*target_regions=*/4) {
    agents_ = topology_.clients;
    agents_.push_back(topology_.source);
  }

  /// The first agent pair whose route's regions, with repeats folded,
  /// satisfy `accept`; {kInvalidNode, kInvalidNode} when none does.
  template <typename Accept>
  std::pair<net::NodeId, net::NodeId> find(Accept accept) const {
    std::vector<net::NodeId> route;
    for (const net::NodeId from : agents_) {
      for (const net::NodeId to : agents_) {
        if (from == to) continue;
        routing_.pathInto(from, to, route);
        std::vector<std::uint32_t> seen;
        for (const net::NodeId v : route) {
          const std::uint32_t r = regions_.regionOf(v);
          if (seen.empty() || seen.back() != r) seen.push_back(r);
        }
        if (accept(seen)) return {from, to};
      }
    }
    return {net::kInvalidNode, net::kInvalidNode};
  }

  const net::Topology& topology() const { return topology_; }
  const net::Routing& routing() const { return routing_; }
  const sim::RegionMap& regions() const { return regions_; }

 private:
  net::Topology topology_;
  net::Routing routing_;
  sim::RegionMap regions_;
  std::vector<net::NodeId> agents_;
};

TEST(ParallelEngineTest, UnicastAcrossTwoBoundariesIsOneHandoff) {
  const ShardRoutes routes;
  ASSERT_GE(routes.regions().numRegions(), 3u);
  // Sender, transit and destination regions all differ.
  const auto [from, to] =
      routes.find([](const std::vector<std::uint32_t>& seen) {
        return seen.size() == 3 && seen.front() != seen.back();
      });
  ASSERT_NE(from, net::kInvalidNode);
  const sim::RegionMap& regions = routes.regions();
  std::vector<net::NodeId> route;
  routes.routing().pathInto(from, to, route);
  std::uint32_t transit = regions.regionOf(from);
  for (const net::NodeId v : route) {
    if (regions.regionOf(v) != regions.regionOf(from)) {
      transit = regions.regionOf(v);
      break;
    }
  }
  ASSERT_NE(transit, regions.regionOf(to));

  ShardNetworks shards(routes.topology(), routes.routing(), regions, 0.0);
  const Stats stats = shards.send(from, to);
  EXPECT_EQ(stats.handoffs, 1u);
  EXPECT_EQ(stats.events, 1u);
  EXPECT_EQ(shards.eventsIn(transit), 0u);
  EXPECT_EQ(shards.eventsIn(regions.regionOf(from)), 0u);
  // The sender walked and counted every hop, the transit region's too.
  EXPECT_EQ(shards.statsOf(regions.regionOf(from)).recovery_hops,
            route.size() - 1);
  EXPECT_EQ(shards.statsOf(transit).recovery_hops, 0u);
  ASSERT_EQ(shards.arrivals().size(), 1u);
  const Arrival& arrival = shards.arrivals().front();
  EXPECT_EQ(arrival.at, to);
  EXPECT_EQ(arrival.region, regions.regionOf(to));
  const std::vector<sim::TimeMs> serial = serialArrivals(
      routes.topology(), routes.routing(), from, to, 0.0);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(arrival.time, serial.front());  // bit for bit
}

TEST(ParallelEngineTest, UnicastReenteringItsRegionIsNoHandoff) {
  const ShardRoutes routes;
  ASSERT_GE(routes.regions().numRegions(), 3u);
  // Leaves the sender's region and comes back to it.
  const auto [from, to] =
      routes.find([](const std::vector<std::uint32_t>& seen) {
        return seen.size() >= 3 && seen.front() == seen.back();
      });
  ASSERT_NE(from, net::kInvalidNode);
  ShardNetworks shards(routes.topology(), routes.routing(), routes.regions(),
                       0.0);
  const Stats stats = shards.send(from, to);
  EXPECT_EQ(stats.handoffs, 0u);
  EXPECT_EQ(stats.events, 1u);
  ASSERT_EQ(shards.arrivals().size(), 1u);
  EXPECT_EQ(shards.arrivals().front().region, routes.regions().regionOf(from));
  const std::vector<sim::TimeMs> serial = serialArrivals(
      routes.topology(), routes.routing(), from, to, 0.0);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(shards.arrivals().front().time, serial.front());
}

TEST(ParallelEngineTest, EveryDuplicateBoundForAnotherRegionIsOneHandoff) {
  // Nearly every crossing duplicates, and every copy walks the rest of the
  // route: each copy that reaches the remote destination is one more
  // handoff, delivered when the serial run delivers it.
  constexpr double kDuplication = 0.99;
  const ShardRoutes routes;
  const auto [from, to] =
      routes.find([](const std::vector<std::uint32_t>& seen) {
        return seen.size() >= 3 && seen.front() != seen.back();
      });
  ASSERT_NE(from, net::kInvalidNode);
  ShardNetworks shards(routes.topology(), routes.routing(), routes.regions(),
                       kDuplication);
  const Stats stats = shards.send(from, to);
  const sim::NetworkStats& sender =
      shards.statsOf(routes.regions().regionOf(from));
  EXPECT_GT(sender.duplicates_created, 1u);
  EXPECT_EQ(stats.handoffs, sender.duplicates_created + 1);
  EXPECT_EQ(stats.events, stats.handoffs);
  std::vector<sim::TimeMs> times;
  for (const Arrival& arrival : shards.arrivals()) {
    EXPECT_EQ(arrival.region, routes.regions().regionOf(to));
    times.push_back(arrival.time);
  }
  EXPECT_EQ(times, serialArrivals(routes.topology(), routes.routing(), from,
                                  to, kDuplication));
}

}  // namespace
}  // namespace rmrn::harness
