// ParallelEngine accounting (DESIGN.md §14): Stats describe one run() call,
// so a run split across calls reports counts that sum to the one-call run's.
#include "sim/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "harness/world.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/region_map.hpp"
#include "util/rng.hpp"

namespace rmrn::harness {
namespace {

using Stats = sim::ParallelEngine::Stats;

/// A lossy RP transfer on the parallel engine, built region by region the
/// way runParallelTransfer does, with the engine left to the test to drive.
class EngineRig {
 public:
  explicit EngineRig(const net::Topology& topology)
      : routing_(topology.graph),
        regions_(topology, /*target_regions=*/4),
        engine_(regions_, /*workers=*/2),
        patterns_(drawLossPatterns(topology, kLoss, 1.0, kPackets,
                                   util::Rng(11))),
        planner_(buildPlanner(ProtocolKind::kRp, topology, routing_,
                              config_.rp_planner, config_.protocol_config)) {
    const Scheme scheme{ProtocolKind::kRp, config_.protocol_config,
                        config_.srm,       config_.parity,
                        config_.coded,     config_.rp_source_mode};
    for (std::uint32_t r = 0; r < regions_.numRegions(); ++r) {
      World& world = *worlds_.emplace_back(
          std::make_unique<World>(topology, routing_, kLoss, kLossSeed));
      world.network.enableShardMode(regions_, r, &engine_.outboxFor(r));
      for (const sim::LinkLossPattern& pattern : patterns_) {
        world.network.stageLossPattern(pattern);
      }
      world.buildProtocol(scheme, planner_.get(), util::Rng(200 + r));
      world.scheduleData(patterns_, config_.packet_interval_ms);
      engine_.attach(r, &world.simulator, &world.network);
    }
  }

  sim::ParallelEngine& engine() { return engine_; }

  /// The horizon the engine's next epoch will use: the earliest pending
  /// event or undelivered handoff, plus the lookahead.
  [[nodiscard]] sim::TimeMs nextHorizon() {
    sim::TimeMs next = sim::Simulator::kForever;
    for (std::uint32_t r = 0; r < regions_.numRegions(); ++r) {
      next = std::min(next, worlds_[r]->simulator.nextEventTime());
      for (const sim::RoutedHandoff& routed : engine_.outboxFor(r)) {
        next = std::min(next, routed.handoff.at);
      }
    }
    return next + regions_.lookaheadMs();
  }

  [[nodiscard]] std::uint64_t handoffsEmitted() const {
    std::uint64_t sum = 0;
    for (const auto& world : worlds_) sum += world->network.handoffsEmitted();
    return sum;
  }
  [[nodiscard]] std::size_t recoveries() const {
    std::size_t sum = 0;
    for (const auto& world : worlds_) sum += world->recovery.recoveries();
    return sum;
  }

 private:
  static constexpr double kLoss = 0.1;
  static constexpr std::uint64_t kLossSeed = 100;
  static constexpr std::uint32_t kPackets = 20;

  TransferConfig config_;
  net::Routing routing_;
  sim::RegionMap regions_;
  sim::ParallelEngine engine_;
  std::vector<sim::LinkLossPattern> patterns_;
  std::unique_ptr<core::RpPlanner> planner_;
  std::vector<std::unique_ptr<World>> worlds_;
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

}  // namespace
}  // namespace rmrn::harness
