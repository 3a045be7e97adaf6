#include "protocols/coded_protocol.hpp"

#include <gtest/gtest.h>

#include "proto_fixture.hpp"
#include "support/scheduled_calls.hpp"

namespace rmrn::protocols {

// White-box access: the decoder-core tests inject crafted coded repairs
// directly (bypassing the source) to pin rank behaviour.
struct CodedProtocolTestPeer {
  static void deliverParity(CodedProtocol& p, net::NodeId at,
                            const sim::Packet& packet) {
    p.onParity(at, packet);
  }
  static std::uint32_t rank(const CodedProtocol& p, net::NodeId client,
                            std::uint64_t window) {
    return p.client_units_.at(CodedProtocol::key(client, window))
        ->decoder.rows_used;
  }
  static std::size_t openSessions(const CodedProtocol& p) {
    return p.openSessions();
  }
};

namespace {

using testutil::ProtoHarness;

struct CodedHarness : ProtoHarness {
  CodedProtocol protocol;

  explicit CodedHarness(double loss_prob = 0.0, std::uint64_t seed = 1,
                        CodedConfig coded = {})
      : ProtoHarness(loss_prob, seed),
        protocol(network, metrics, ProtocolConfig{}, coded,
                 util::Rng(seed).fork(99).next()) {
    protocol.attach();
  }
};

sim::Packet codedRepair(std::uint64_t window, std::uint64_t index,
                        std::uint32_t covered) {
  return sim::Packet{sim::Packet::Type::kParity, window, 0,
                     net::kInvalidNode, sim::makeCodedTag(index, covered)};
}

TEST(CodedProtocolTest, NoLossNoTraffic) {
  CodedHarness h;
  h.protocol.sourceMulticast(0, h.noLoss());
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 0u);
  EXPECT_EQ(h.protocol.nacksSent(), 0u);
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 0u);
}

TEST(CodedProtocolTest, SingleLossOneCodedRepair) {
  CodedHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.protocol.nacksSent(), 1u);
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 1u);
  EXPECT_TRUE(h.protocol.hasPacket(3, 0));
}

TEST(CodedProtocolTest, OneWaveServesAllLosers) {
  // Drop 0->1: all four clients miss packet 0, each needs ONE coded repair;
  // NACK aggregation means the source multicasts exactly one.
  CodedHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({1}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.recoveries(), 4u);
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 1u);
}

TEST(CodedProtocolTest, WaveCoversUnionOfAsymmetricLosses) {
  // Client 3 misses {0, 1}, client 4 misses {1, 2} — four distinct losses
  // over three sequences of one window.  Two coded rows span each client's
  // two unknowns, so max(needed) = 2 repairs serve the whole union (a
  // per-sequence scheme would retransmit 3 distinct packets).
  CodedHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.protocol.sourceMulticast(1, h.lossInto({2}));  // clients 3 and 4
  h.protocol.sourceMulticast(2, h.lossInto({4}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.recoveries(), 4u);
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 2u);
}

TEST(CodedProtocolTest, DecodesExactlyAtRankEqualsLossCount) {
  // Decoder-core pin, bypassing the source: two losses in window 0, then
  // crafted rows.  One row -> rank 1, no decode; its duplicate -> dependent
  // by algebra, dropped; a fresh row -> rank 2, exact decode.
  CodedHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.protocol.sourceMulticast(1, h.lossInto({3}));
  h.sim.run(20.0);  // both losses detected; no wave back yet
  ASSERT_FALSE(h.protocol.hasPacket(3, 0));

  // Indices far above anything the source would use: purely synthetic rows.
  CodedProtocolTestPeer::deliverParity(h.protocol, 3, codedRepair(0, 70, 2));
  EXPECT_EQ(CodedProtocolTestPeer::rank(h.protocol, 3, 0), 1u);
  EXPECT_FALSE(h.protocol.hasPacket(3, 0)) << "decoded below full rank";

  CodedProtocolTestPeer::deliverParity(h.protocol, 3, codedRepair(0, 70, 2));
  EXPECT_EQ(CodedProtocolTestPeer::rank(h.protocol, 3, 0), 1u);
  EXPECT_EQ(h.protocol.dependentRowsDropped(), 1u)
      << "identical row must reduce to zero";

  CodedProtocolTestPeer::deliverParity(h.protocol, 3, codedRepair(0, 71, 2));
  EXPECT_TRUE(h.protocol.hasPacket(3, 0));
  EXPECT_TRUE(h.protocol.hasPacket(3, 1));
}

TEST(CodedProtocolTest, RepairRacingDetectionIsDropped) {
  // A repair covering a sequence the client neither holds nor knows it lost
  // is unusable and must not corrupt the decoder.
  CodedHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));  // detected at 13ms
  test_support::ScheduledCalls calls(h.sim);
  calls.at(5.0, [&] {
    h.protocol.sourceMulticast(1, h.lossInto({3}));  // detected at 18ms
  });
  h.sim.run(14.0);  // seq 0 detected; seq 1 lost but not yet noticed
  CodedProtocolTestPeer::deliverParity(h.protocol, 3, codedRepair(0, 70, 2));
  EXPECT_EQ(h.protocol.racedRowsDropped(), 1u);
  EXPECT_EQ(CodedProtocolTestPeer::rank(h.protocol, 3, 0), 0u);
  // The run still completes through the normal NACK/wave path.
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
}

TEST(CodedProtocolTest, LateLossNeedsFreshRepair) {
  // The coded analog of the parity late-loss regression: rows consumed by a
  // decode must not pay for a loss detected afterwards in the same window.
  CodedHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  ASSERT_TRUE(h.protocol.allRecovered());
  ASSERT_EQ(h.protocol.sourceRepairMulticasts(), 1u);
  h.protocol.sourceMulticast(1, h.lossInto({3}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.protocol.nacksSent(), 2u);
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 2u);
}

TEST(CodedProtocolTest, CrashDuringGatherCancelsOrphanWave) {
  CodedConfig coded;
  coded.gather_window_ms = 100.0;
  CodedHarness h(0.0, 1, coded);
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  test_support::ScheduledCalls calls(h.sim);
  calls.at(25.0, [&] { h.protocol.clientCrashed(3); });
  h.sim.run();
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 0u);
  EXPECT_EQ(CodedProtocolTestPeer::openSessions(h.protocol), 0u);
}

TEST(CodedProtocolTest, RecoversUnderLossyRecoveryTraffic) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    CodedHarness h(0.20, seed);
    h.protocol.sourceMulticast(0, h.lossInto({1}));
    h.protocol.sourceMulticast(1, h.lossInto({2, 6}));
    h.sim.run();
    EXPECT_TRUE(h.protocol.allRecovered()) << "seed " << seed;
    EXPECT_TRUE(h.sim.idle());
  }
}

TEST(CodedProtocolTest, DeterministicAcrossIdenticalRuns) {
  const auto run = [](std::uint64_t seed) {
    CodedHarness h(0.10, seed);
    h.protocol.sourceMulticast(0, h.lossInto({1}));
    h.protocol.sourceMulticast(1, h.lossInto({2}));
    h.protocol.sourceMulticast(2, h.lossInto({6}));
    h.sim.run();
    return std::tuple{h.protocol.nacksSent(),
                      h.protocol.sourceRepairMulticasts(),
                      h.metrics.latency().mean(), h.sim.eventsProcessed()};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // the seed genuinely reaches the coefficients
}

TEST(CodedProtocolTest, CodedRepairDoesNotCorruptDataStore) {
  CodedHarness h;
  h.protocol.sourceMulticast(0, h.noLoss());
  h.protocol.sourceMulticast(1, h.lossInto({3}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_FALSE(h.protocol.hasPacket(4, 2));
  EXPECT_FALSE(h.protocol.hasPacket(4, 15));
}

TEST(CodedProtocolTest, RejectsBadConfig) {
  ProtoHarness base;
  const auto expect_throws = [&](CodedConfig bad) {
    EXPECT_THROW(CodedProtocol(base.network, base.metrics, {}, bad, 1),
                 std::invalid_argument);
  };
  CodedConfig bad;
  bad.window_size = 1;
  expect_throws(bad);
  bad = {};
  bad.window_size = CodedProtocol::kMaxWindowSize + 1;
  expect_throws(bad);
  bad = {};
  bad.gather_window_ms = -1.0;
  expect_throws(bad);
}

}  // namespace
}  // namespace rmrn::protocols
