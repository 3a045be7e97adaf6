#include "protocols/parity_protocol.hpp"

#include <gtest/gtest.h>

#include "proto_fixture.hpp"
#include "support/scheduled_calls.hpp"

namespace rmrn::protocols {

// White-box access for the state-machine regression tests below: the stale
// timer_armed path is unreachable through organic event orders (every
// transition that empties `missing` also cancels the armed timer), so its
// regression injects the timer fire directly.
struct ParityProtocolTestPeer {
  static ParityProtocol::ClientBlock& block(ParityProtocol& p,
                                            net::NodeId client,
                                            std::uint64_t block_id) {
    return p.client_blocks_.at(ParityProtocol::key(client, block_id));
  }
  static void fireRetry(ParityProtocol& p, net::NodeId client,
                        std::uint64_t block_id) {
    p.onTimer(ParityProtocol::kTimerRetry, client, block_id, 0);
  }
  static std::size_t openSessions(const ParityProtocol& p) {
    return p.openSessions();
  }
};

namespace {

using testutil::ProtoHarness;

struct ParityHarness : ProtoHarness {
  ParityProtocol protocol;

  explicit ParityHarness(double loss_prob = 0.0, std::uint64_t seed = 1,
                         ParityConfig parity = {})
      : ProtoHarness(loss_prob, seed),
        protocol(network, metrics, ProtocolConfig{}, parity) {
    protocol.attach();
  }
};

TEST(ParityProtocolTest, NoLossNoTraffic) {
  ParityHarness h;
  h.protocol.sourceMulticast(0, h.noLoss());
  h.sim.run();
  EXPECT_EQ(h.metrics.losses(), 0u);
  EXPECT_EQ(h.protocol.nacksSent(), 0u);
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 0u);
}

TEST(ParityProtocolTest, SingleLossOneParity) {
  ParityHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.protocol.nacksSent(), 1u);
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 1u);
  EXPECT_TRUE(h.protocol.hasPacket(3, 0));
}

TEST(ParityProtocolTest, OneParityWaveServesAllLosers) {
  // Drop 0->1: all four clients miss packet 0, each needs ONE parity; NACK
  // aggregation means the source multicasts exactly one parity packet.
  ParityHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({1}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.recoveries(), 4u);
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 1u);
}

TEST(ParityProtocolTest, MultipleLossesInBlockNeedMultipleParities) {
  // Client 3 loses packets 0 and 1 of block 0: needs two parities.
  ParityHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.protocol.sourceMulticast(1, h.lossInto({3}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.recoveries(), 2u);
  EXPECT_GE(h.protocol.sourceRepairMulticasts(), 2u);
  EXPECT_TRUE(h.protocol.hasPacket(3, 0));
  EXPECT_TRUE(h.protocol.hasPacket(3, 1));
}

TEST(ParityProtocolTest, BlocksAreIndependent) {
  ParityConfig parity;
  parity.block_size = 2;
  ParityHarness h(0.0, 1, parity);
  h.protocol.sourceMulticast(0, h.lossInto({3}));  // block 0
  h.protocol.sourceMulticast(1, h.noLoss());
  h.protocol.sourceMulticast(2, h.lossInto({8}));  // block 1
  h.protocol.sourceMulticast(3, h.noLoss());
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.recoveries(), 2u);
  // One parity per affected block.
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 2u);
}

TEST(ParityProtocolTest, AsymmetricNeedsServedByMaxRequest) {
  // Drop 1->2 on packet 0 (clients 3 and 4 lose) and additionally 2->3 on
  // packet 1 (only client 3 loses).  Client 3 needs 2 parities, client 4
  // needs 1: the waves must total >= 2 parities and everyone decodes.
  ParityHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({2}));
  h.protocol.sourceMulticast(1, h.lossInto({3}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.metrics.recoveries(), 3u);
  EXPECT_GE(h.protocol.sourceRepairMulticasts(), 2u);
}

TEST(ParityProtocolTest, RecoversUnderLossyRecoveryTraffic) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    ParityHarness h(0.20, seed);
    h.protocol.sourceMulticast(0, h.lossInto({1}));
    h.protocol.sourceMulticast(1, h.lossInto({2, 6}));
    h.sim.run();
    EXPECT_TRUE(h.protocol.allRecovered()) << "seed " << seed;
    EXPECT_TRUE(h.sim.idle());
  }
}

TEST(ParityProtocolTest, ParityDoesNotCorruptDataStore) {
  // Parity packets carry block ids; they must never be mistaken for data.
  ParityConfig parity;
  parity.block_size = 4;
  ParityHarness h(0.0, 1, parity);
  h.protocol.sourceMulticast(0, h.noLoss());
  h.protocol.sourceMulticast(1, h.lossInto({3}));  // block 0 parity wave
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  // Clients must not spuriously "hold" unsent sequences.
  EXPECT_FALSE(h.protocol.hasPacket(4, 2));
  EXPECT_FALSE(h.protocol.hasPacket(4, 3));
}

TEST(ParityProtocolTest, RejectsBadConfig) {
  ProtoHarness base;
  ParityConfig bad;
  bad.block_size = 0;
  EXPECT_THROW(
      ParityProtocol(base.network, base.metrics, ProtocolConfig{}, bad),
      std::invalid_argument);
  bad = {};
  bad.gather_window_ms = -1.0;
  EXPECT_THROW(
      ParityProtocol(base.network, base.metrics, ProtocolConfig{}, bad),
      std::invalid_argument);
}

TEST(ParityProtocolTest, LatencyIncludesGatherWindow) {
  ParityConfig parity;
  parity.gather_window_ms = 50.0;
  ParityHarness h(0.0, 1, parity);
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  ASSERT_EQ(h.metrics.recoveries(), 1u);
  // NACK travel + 50ms gather + parity travel: well above the bare RTT.
  EXPECT_GE(h.metrics.latency().mean(), 50.0);
}

// --- state-machine regressions (PR 9) --------------------------------------

TEST(ParityProtocolTest, RetryFireOnDecodedBlockClearsArmedFlag) {
  // Regression: kTimerRetry firing on a block whose missing set already
  // emptied must still clear timer_armed.  The buggy early return left the
  // flag set with a consumed handle, so the next sendNack for the block
  // cancelled a timer that no longer existed.
  ParityHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  ASSERT_TRUE(h.protocol.allRecovered());
  auto& state = ParityProtocolTestPeer::block(h.protocol, 3, 0);
  ASSERT_TRUE(state.missing.empty());

  // Re-create the fire-after-decode race: the flag says armed, but the
  // timer pops with nothing left to chase.
  state.timer_armed = true;
  ParityProtocolTestPeer::fireRetry(h.protocol, 3, 0);
  EXPECT_FALSE(state.timer_armed) << "stale armed flag after no-op fire";
  const std::uint64_t nacks_before = h.protocol.nacksSent();

  // Re-loss on the same block must then run a clean second cycle.
  h.protocol.sourceMulticast(1, h.lossInto({3}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.protocol.nacksSent(), nacks_before + 1);
  EXPECT_FALSE(ParityProtocolTestPeer::block(h.protocol, 3, 0).timer_armed);
}

TEST(ParityProtocolTest, CrashDuringGatherCancelsOrphanWave) {
  // Regression: a gather window opened by the only interested client must
  // die with that client.  Pre-fix the wave fired anyway (wasted multicast)
  // and the gathering block escaped the openSessions() liveness count.
  ParityConfig parity;
  parity.gather_window_ms = 100.0;
  ParityHarness h(0.0, 1, parity);
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  // The NACK reaches the source 16ms in (3ms downhill + 10ms detection +
  // 3ms uphill); probe the liveness count mid-window, then crash the loser.
  std::size_t open_mid_gather = 0;
  test_support::ScheduledCalls calls(h.sim);
  calls.at(18.0, [&] {
    open_mid_gather = ParityProtocolTestPeer::openSessions(h.protocol);
  });
  calls.at(25.0, [&] { h.protocol.clientCrashed(3); });
  h.sim.run();
  // 1 missing seq + 1 gathering source block while the window was open.
  EXPECT_EQ(open_mid_gather, 2u);
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 0u)
      << "wave fired for a dead client";
  EXPECT_EQ(ParityProtocolTestPeer::openSessions(h.protocol), 0u);
}

TEST(ParityProtocolTest, CrashDuringGatherKeepsWaveForSurvivors) {
  // Companion: with a second interested loser the gather must survive the
  // crash and still serve the survivor.
  ParityConfig parity;
  parity.gather_window_ms = 100.0;
  ParityHarness h(0.0, 1, parity);
  h.protocol.sourceMulticast(0, h.lossInto({2}));  // clients 3 and 4 lose
  test_support::ScheduledCalls calls(h.sim);
  calls.at(20.0, [&] { h.protocol.clientCrashed(3); });
  h.sim.run();
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 1u);
  EXPECT_TRUE(h.protocol.hasPacket(4, 0));
  EXPECT_EQ(ParityProtocolTestPeer::openSessions(h.protocol), 0u);
}

TEST(ParityProtocolTest, LateLossNeedsFreshParity) {
  // Regression: a parity consumed by an earlier decode must not pay for a
  // loss detected later in the same block.  Pre-fix, parity_indices from
  // wave 1 satisfied `parity_indices.size() >= missing.size()` for the new
  // loss and the client "recovered" without any repair traffic at all.
  ParityHarness h;
  h.protocol.sourceMulticast(0, h.lossInto({3}));
  h.sim.run();
  ASSERT_TRUE(h.protocol.allRecovered());
  ASSERT_EQ(h.protocol.nacksSent(), 1u);
  ASSERT_EQ(h.protocol.sourceRepairMulticasts(), 1u);

  // Second loss, same block (block_size 8 covers seqs 0..7).
  h.protocol.sourceMulticast(1, h.lossInto({3}));
  h.sim.run();
  EXPECT_TRUE(h.protocol.allRecovered());
  EXPECT_EQ(h.protocol.nacksSent(), 2u) << "late loss decoded from thin air";
  EXPECT_EQ(h.protocol.sourceRepairMulticasts(), 2u);
}

}  // namespace
}  // namespace rmrn::protocols
