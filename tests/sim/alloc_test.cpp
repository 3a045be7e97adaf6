// Steady-state allocation-freedom of the data plane (ISSUE acceptance
// criterion: 0 heap allocations per forwarded hop once warmed up).
//
// This binary links src/util/alloc_counter.cpp, which replaces the global
// allocation operators with counting wrappers.  Each test runs one warm-up
// campaign — growing the event-queue slab/heap, the pattern and flood
// arenas and the RNG state to their peak — then repeats the identical
// workload and asserts the allocation counter did not move.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/region_map.hpp"
#include "sim/simulator.hpp"
#include "support/delivery_fn.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace rmrn::sim {
namespace {

TEST(AllocCounterTest, CountsHeapTraffic) {
  const util::AllocCounts before = util::allocCounts();
  auto p = std::make_unique<int>(42);
  const util::AllocCounts mid = util::allocCounts();
  EXPECT_GT(mid.allocations, before.allocations);
  EXPECT_GE(mid.bytes - before.bytes, sizeof(int));
  p.reset();
  EXPECT_GT(util::allocCounts().deallocations, before.deallocations);
}

class DataPlaneAllocTest : public ::testing::Test {
 protected:
  explicit DataPlaneAllocTest(double loss_prob = 0.05) {
    util::Rng rng(321);
    net::TopologyConfig config;
    config.num_nodes = 40;
    topo_ = net::generateTopology(config, rng);
    routing_ = std::make_unique<net::Routing>(topo_.graph);
    network_ = std::make_unique<SimNetwork>(
        simulator_, topo_, *routing_, loss_prob, lossSeedOf(util::Rng(11)));
    network_->setDeliverySink(&on_deliver_);
  }

  /// Rounds steadyStateAllocations() runs by default, the measured one
  /// included.
  static constexpr int kRounds = 21;

  /// Runs `workload` through `warmup` rounds (loss draws differ per round,
  /// so the in-flight peak — and with it the arenas — can keep growing for
  /// a few rounds before saturating), then once more measured; returns the
  /// measured round's heap allocation count.
  template <typename Workload>
  std::uint64_t steadyStateAllocations(Workload&& workload,
                                       int warmup = kRounds - 1) {
    for (int round = 0; round < warmup; ++round) {
      workload();
      simulator_.run();
    }
    const std::uint64_t before = util::allocCounts().allocations;
    workload();
    simulator_.run();
    return util::allocCounts().allocations - before;
  }

  Simulator simulator_;
  net::Topology topo_;
  std::unique_ptr<net::Routing> routing_;
  std::unique_ptr<SimNetwork> network_;
  std::uint64_t delivered_ = 0;
  test_support::DeliveryFn on_deliver_{
      [this](net::NodeId, const Packet&) { ++delivered_; }};
};

TEST_F(DataPlaneAllocTest, UnicastForwardingIsAllocationFree) {
  const auto allocs = steadyStateAllocations([this] {
    Packet packet{Packet::Type::kRequest, 1, topo_.source, topo_.source, 0};
    for (const net::NodeId client : topo_.clients) {
      network_->unicast(topo_.source, client, packet);
      network_->unicast(client, topo_.source, packet);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(delivered_, 0u);
}

TEST_F(DataPlaneAllocTest, TreeFloodsAreAllocationFree) {
  LinkLossPattern losses(topo_.tree.numMembers(), false);
  losses[1] = true;  // exercise the forced-pattern arena, not just Bernoulli
  std::size_t lane_cursors = 0;  // the measured round's, once it is sent
  const auto allocs = steadyStateAllocations([this, &losses, &lane_cursors] {
    Packet data{Packet::Type::kData, 2, topo_.source, topo_.source, 0};
    network_->multicastFromSource(data, &losses);
    network_->multicastFromSource(data, nullptr);
    Packet repair{Packet::Type::kRepair, 2, topo_.clients.front(),
                  topo_.clients.front(), 0};
    network_->multicastGroup(topo_.clients.front(), repair);
    network_->multicastDownInto(topo_.source, repair);
    lane_cursors = simulator_.pendingCursors();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(delivered_, 0u);
  // Each flood's cursor waits on the queue's cursor lane, not in the slab.
  EXPECT_GT(lane_cursors, 0u);
  EXPECT_GT(simulator_.eventsProcessed(EventKind::kFloodCursor), 0u);
  // All four are whole-tree floods: each replays its origin's schedule,
  // built by the first round, in every round.
  EXPECT_EQ(network_->floodsReplayed(), 4u * kRounds);
}


TEST_F(DataPlaneAllocTest, ChaosForwardingIsAllocationFree) {
  // Link chaos is two network-wide values and a per-edge timeline staged
  // before traffic; duplicated copies ride the refcounted arenas, so
  // forwarding stays allocation-free with flaps, duplication, and jitter
  // all active.
  network_->setAllLinksDuplicationProb(0.3);
  network_->setAllLinksJitterMs(2.0);
  const net::NodeId flapped = topo_.clients.back();
  const net::NodeId parent = topo_.tree.parent(flapped);
  // The link flaps every 0.5 ms, for longer than the rounds run.  Copies
  // are random, so the in-flight peak takes more rounds to saturate.
  constexpr int kFlaps = 200000;
  for (int i = 0; i < kFlaps; ++i) {
    network_->stageLinkState(parent, flapped, 0.5 * i, /*up=*/i % 2 == 1);
  }
  const auto allocs = steadyStateAllocations([this] {
    Packet data{Packet::Type::kData, 3, topo_.source, topo_.source, 0};
    network_->multicastFromSource(data, nullptr);
    Packet packet{Packet::Type::kRequest, 3, topo_.source, topo_.source, 0};
    for (const net::NodeId client : topo_.clients) {
      network_->unicast(topo_.source, client, packet);
      network_->unicast(client, topo_.source, packet);
    }
    network_->multicastGroup(topo_.clients.front(), packet);
  }, /*warmup=*/200);
  EXPECT_EQ(allocs, 0u);
  EXPECT_LT(simulator_.now(), 0.5 * kFlaps);
  EXPECT_GT(network_->stats().duplicates_created, 0u);
  EXPECT_GT(network_->stats().chaos_link_drops, 0u);
}

// Recovery loss 0: every send takes the closed-form path (one event per
// agent delivery, frontiers and replay slots in the recycled flood arena).
class LosslessDataPlaneAllocTest : public DataPlaneAllocTest {
 protected:
  LosslessDataPlaneAllocTest() : DataPlaneAllocTest(0.0) {}
};

TEST_F(LosslessDataPlaneAllocTest, ClosedFormTransportIsAllocationFree) {
  LinkLossPattern losses(topo_.tree.numMembers(), false);
  losses[1] = true;
  losses[losses.size() / 2] = true;
  const net::NodeId first = topo_.clients.front();
  const net::NodeId last = topo_.clients.back();
  const net::NodeId scope = topo_.tree.parent(last);
  std::size_t lane_cursors = 0;  // the measured round's, once it is sent
  const auto allocs = steadyStateAllocations([&] {
    Packet data{Packet::Type::kData, 4, topo_.source, topo_.source, 0};
    network_->multicastFromSource(data, &losses);
    network_->multicastFromSource(data, nullptr);
    Packet repair{Packet::Type::kRepair, 4, first, first, 0};
    network_->multicastGroup(first, repair);
    network_->multicastSubtree(scope, last, repair);
    network_->multicastDownInto(scope, repair);
    Packet request{Packet::Type::kRequest, 4, topo_.source, topo_.source, 0};
    for (const net::NodeId client : topo_.clients) {
      network_->unicast(topo_.source, client, request);
      network_->unicast(client, first, request);
    }
    lane_cursors = simulator_.pendingCursors();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(delivered_, 0u);
  // The round's five floods (replayed and frontier alike) keep their
  // cursors on the lane, one per flood with an agent still to reach; the
  // unicasts' deliveries are the only slab events.
  EXPECT_GT(lane_cursors, 0u);
  EXPECT_LE(lane_cursors, 5u);
  EXPECT_GT(simulator_.eventsProcessed(EventKind::kFloodCursor), 0u);
  // One network event per agent delivery: no send fires an event anywhere
  // else on its way.
  EXPECT_EQ(simulator_.eventsProcessed(EventKind::kDeliver) +
                simulator_.eventsProcessed(EventKind::kFloodCursor),
            delivered_);
  // The data floods and the group flood replay schedules; the scoped
  // floods keep frontiers.
  EXPECT_EQ(network_->floodsReplayed(), 3u * kRounds);
}

TEST_F(LosslessDataPlaneAllocTest,
       FloodsAfterTheFirstFromEachOriginAllocateNothing) {
  // One round of group floods from every member builds every schedule and
  // warms the arenas; a repeat of it then only walks the schedules and
  // allocates nothing.
  const std::vector<net::NodeId>& members = topo_.tree.members();
  std::size_t lane_cursors = 0;  // the measured round's, once it is sent
  const auto allocs = steadyStateAllocations([&] {
    for (const net::NodeId from : members) {
      network_->multicastGroup(
          from, Packet{Packet::Type::kRequest, 6, from, from, 0});
    }
    lane_cursors = simulator_.pendingCursors();
  }, /*warmup=*/1);
  EXPECT_EQ(allocs, 0u);
  // One cursor per flood that reaches an agent (a router origin's flood
  // may reach none before its first cursor), all on the lane.
  EXPECT_GT(lane_cursors, 0u);
  EXPECT_LE(lane_cursors, members.size());
  EXPECT_EQ(network_->floodsReplayed(), 2 * members.size());
}

/// One region's replica of a sharded run: its simulator and shard-mode
/// network, and a timer that issues the region's sends of a round.
struct ShardReplica final : EventSink {
  ShardReplica(const net::Topology& topology, const net::Routing& routing,
               const RegionMap& regions, std::uint32_t region,
               ParallelEngine& engine)
      : topo(topology),
        network(simulator, topology, routing, 0.05, /*loss_seed=*/77) {
    network.enableShardMode(regions, region, &engine.outboxFor(region));
    network.setDeliverySink(&on_deliver);
    engine.attach(region, &simulator, &network);
  }

  /// The round's sends from this region's agents.
  void onEvent(const EventRecord&) override {
    const net::NodeId src = topo.source;
    if (network.isShardLocal(src)) {
      network.multicastFromSource(Packet{Packet::Type::kData, 0, src, src, 0},
                                  &pattern);
    }
    Packet request{Packet::Type::kRequest, 5, src, src, 0};
    for (const net::NodeId c : topo.clients) {
      if (network.isShardLocal(src)) network.unicast(src, c, request);
      if (network.isShardLocal(c)) network.unicast(c, src, request);
    }
    const net::NodeId first = topo.clients.front();
    if (network.isShardLocal(first)) network.multicastGroup(first, request);
  }

  const net::Topology& topo;
  Simulator simulator;
  SimNetwork network;
  test_support::DeliveryFn on_deliver{[](net::NodeId, const Packet&) {}};
  LinkLossPattern pattern;
};

TEST(ShardDataPlaneAllocTest, ShardModeForwardingIsAllocationFree) {
  // A unicast hands a delivery in another region over, a flood hands over
  // each crossing into another region, and each injected handoff fires one
  // event: after warm-up neither the outboxes and inboxes nor any arena
  // grows.  Every network event is an agent delivery or a handed-over
  // arrival, so events never exceed deliveries plus handoffs.
  util::Rng rng(321);
  net::TopologyConfig config;
  config.num_nodes = 60;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);
  const RegionMap regions(topo, 4);
  ASSERT_GE(regions.numRegions(), 2u);
  ParallelEngine engine(regions, /*workers=*/1);
  LinkLossPattern pattern(topo.tree.numMembers(), false);
  pattern[1] = true;
  std::vector<std::unique_ptr<ShardReplica>> replicas;
  for (std::uint32_t r = 0; r < regions.numRegions(); ++r) {
    replicas.push_back(
        std::make_unique<ShardReplica>(topo, routing, regions, r, engine));
    replicas.back()->pattern = pattern;
    (void)replicas.back()->network.stageLossPattern(pattern);
  }
  std::uint64_t handoffs = 0;
  const auto round = [&](int i) {
    // Every region starts the round at one common time.
    EventRecord record{EventKind::kTimer, {}};
    for (const auto& replica : replicas) {
      replica->simulator.scheduleEventAt(1000.0 * (i + 1), replica.get(),
                                         record);
    }
    handoffs += engine.run().handoffs;
  };
  for (int i = 0; i < 20; ++i) round(i);
  const std::uint64_t before = util::allocCounts().allocations;
  round(20);
  EXPECT_EQ(util::allocCounts().allocations - before, 0u);

  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  for (const auto& replica : replicas) {
    events += replica->simulator.eventsProcessed() -
              replica->simulator.eventsProcessed(EventKind::kTimer);
    deliveries += replica->network.stats().deliveries;
  }
  EXPECT_GT(handoffs, 0u);
  EXPECT_LE(events, deliveries + handoffs);
}

TEST_F(DataPlaneAllocTest, TypedTimerChurnIsAllocationFree) {
  // The protocols' timer pattern on the typed lane: schedule, cancel half,
  // fire the rest.  After warm-up the slab and heap recycle every slot.
  class NullSink final : public EventSink {
   public:
    void onEvent(const EventRecord&) override {}
  } sink;
  double t = 1.0e6;  // past any network warm-up traffic
  const auto allocs = steadyStateAllocations([this, &sink, &t] {
    EventRecord record{EventKind::kTimer, {}};
    for (int i = 0; i < 200; ++i) {
      record.data.timer = TimerEvent{0, static_cast<std::uint64_t>(i), 0, 0};
      const EventId id = simulator_.scheduleEventAt(t, &sink, record);
      t += 1.0;
      if (i % 2 == 0) simulator_.cancel(id);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace rmrn::sim
