#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/delivery_fn.hpp"

namespace rmrn::sim {
namespace {

using net::NodeId;

// 0 (source) - 1 (router) - 2, 3 (clients); extra edge 2-3.
net::Topology lineTopology() {
  net::Topology t;
  t.graph = net::Graph(4);
  t.graph.addEdge(0, 1, 1.0);
  t.graph.addEdge(1, 2, 2.0);
  t.graph.addEdge(1, 3, 3.0);
  std::vector<NodeId> parent(4, net::kInvalidNode);
  parent[1] = 0;
  parent[2] = 1;
  parent[3] = 1;
  t.tree = net::MulticastTree(0, std::move(parent));
  t.source = 0;
  t.clients = {2, 3};
  return t;
}

struct TraceFixture : ::testing::Test {
  TraceFixture()
      : topo(lineTopology()),
        routing(topo.graph),
        network(sim, topo, routing, 0.0, lossSeedOf(util::Rng(1))) {
    network.setDeliverySink(&on_deliver);
    network.setTraceSink(&recorder);
  }
  net::Topology topo;
  net::Routing routing;
  Simulator sim;
  SimNetwork network;
  TraceRecorder recorder;
  test_support::DeliveryFn on_deliver{[](NodeId, const Packet&) {}};
};

TEST_F(TraceFixture, UnicastEmitsSendPerHopAndDeliver) {
  network.unicast(2, 3, Packet{Packet::Type::kRequest, 5, 2, 2, 0});
  sim.run();
  // Hops 2->1, 1->3 plus one delivery.
  EXPECT_EQ(recorder.count(TraceEvent::Kind::kHopSend), 2u);
  EXPECT_EQ(recorder.count(TraceEvent::Kind::kHopDrop), 0u);
  EXPECT_EQ(recorder.count(TraceEvent::Kind::kDeliver), 1u);
  const auto& events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].from, 2u);
  EXPECT_EQ(events[0].to, 1u);
  EXPECT_DOUBLE_EQ(events[0].time_ms, 0.0);
  EXPECT_EQ(events[1].from, 1u);
  EXPECT_EQ(events[1].to, 3u);
  EXPECT_DOUBLE_EQ(events[1].time_ms, 2.0);
  EXPECT_EQ(events[2].kind, TraceEvent::Kind::kDeliver);
  EXPECT_EQ(events[2].to, 3u);
  EXPECT_DOUBLE_EQ(events[2].time_ms, 5.0);
}

TEST_F(TraceFixture, MulticastDropRecorded) {
  LinkLossPattern losses(topo.tree.numMembers(), false);
  losses[topo.tree.memberIndex(2)] = true;
  network.multicastFromSource(Packet{Packet::Type::kData, 0, 0,
                                     net::kInvalidNode, 0},
                              &losses);
  sim.run();
  EXPECT_EQ(recorder.count(TraceEvent::Kind::kHopDrop), 1u);
  EXPECT_EQ(recorder.count(TraceEvent::Kind::kDeliver), 1u);  // client 3
  // The drop happened on the 1 -> 2 link.
  bool found = false;
  for (const TraceEvent& e : recorder.events()) {
    if (e.kind == TraceEvent::Kind::kHopDrop) {
      EXPECT_EQ(e.from, 1u);
      EXPECT_EQ(e.to, 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceFixture, SequenceFilter) {
  network.unicast(2, 3, Packet{Packet::Type::kRepair, 7, 2, 3, 0});
  network.unicast(3, 2, Packet{Packet::Type::kRepair, 9, 3, 2, 0});
  sim.run();
  EXPECT_EQ(recorder.forSequence(7).size(), 3u);
  EXPECT_EQ(recorder.forSequence(9).size(), 3u);
  EXPECT_TRUE(recorder.forSequence(42).empty());
}

TEST_F(TraceFixture, CountByPacketType) {
  network.unicast(2, 3, Packet{Packet::Type::kRequest, 1, 2, 2, 0});
  network.multicastFromSource(
      Packet{Packet::Type::kData, 0, 0, net::kInvalidNode, 0});
  sim.run();
  EXPECT_GT(recorder.countType(Packet::Type::kRequest), 0u);
  EXPECT_GT(recorder.countType(Packet::Type::kData), 0u);
  EXPECT_EQ(recorder.countType(Packet::Type::kRepair), 0u);
}

TEST_F(TraceFixture, DumpFormat) {
  network.unicast(2, 3, Packet{Packet::Type::kRequest, 5, 2, 2, 0});
  sim.run();
  std::ostringstream out;
  recorder.dump(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("+ 0.000 2 1 REQUEST 5"), std::string::npos);
  EXPECT_NE(text.find("r 5.000 - 3 REQUEST 5"), std::string::npos);
}

TEST_F(TraceFixture, ClearResets) {
  network.unicast(2, 3, Packet{Packet::Type::kRequest, 5, 2, 2, 0});
  sim.run();
  EXPECT_FALSE(recorder.events().empty());
  recorder.clear();
  EXPECT_TRUE(recorder.events().empty());
}

TEST(TraceRecorderTest, RecordsOfOneTimeReadTheSameInAnyEmissionOrder) {
  // Records of one time, emitted in two opposite orders, dump identically:
  // by time, then deliveries, sends and drops, then from, to and packet.
  const Packet repair{Packet::Type::kRepair, 4, 2, 3, 0};
  const Packet request{Packet::Type::kRequest, 4, 3, 3, 0};
  const std::vector<TraceEvent> records = {
      {1.5, TraceEvent::Kind::kHopDrop, 1, 2, repair},
      {1.5, TraceEvent::Kind::kHopSend, 1, 2, repair},
      {1.5, TraceEvent::Kind::kHopSend, 1, 0, repair},
      {1.5, TraceEvent::Kind::kHopSend, 1, 2, request},
      {1.5, TraceEvent::Kind::kDeliver, net::kInvalidNode, 1, repair},
      {0.5, TraceEvent::Kind::kHopSend, 2, 1, repair},
  };
  TraceRecorder forward;
  TraceRecorder backward;
  for (const TraceEvent& e : records) forward.record(e);
  for (auto e = records.rbegin(); e != records.rend(); ++e) {
    backward.record(*e);
  }
  std::ostringstream forward_dump;
  std::ostringstream backward_dump;
  forward.dump(forward_dump);
  backward.dump(backward_dump);
  EXPECT_EQ(forward_dump.str(), backward_dump.str());
  EXPECT_EQ(forward_dump.str(),
            "+ 0.500 2 1 REPAIR 4\n"
            "r 1.500 - 1 REPAIR 4\n"
            "+ 1.500 1 0 REPAIR 4\n"
            "+ 1.500 1 2 REQUEST 4\n"
            "+ 1.500 1 2 REPAIR 4\n"
            "d 1.500 1 2 REPAIR 4\n");
}

TEST(TraceOffTest, NoSinkNoEvents) {
  // Without a sink everything still works (and no recorder is touched).
  net::Topology topo = lineTopology();
  net::Routing routing(topo.graph);
  Simulator sim;
  SimNetwork network(sim, topo, routing, 0.0, lossSeedOf(util::Rng(1)));
  int delivered = 0;
  test_support::DeliveryFn on_deliver(
      [&](NodeId, const Packet&) { ++delivered; });
  network.setDeliverySink(&on_deliver);
  network.unicast(2, 3, Packet{Packet::Type::kRequest, 5, 2, 2, 0});
  sim.run();
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace rmrn::sim
