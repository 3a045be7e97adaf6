#include "metrics/recovery_metrics.hpp"

#include <gtest/gtest.h>

namespace rmrn::metrics {
namespace {

TEST(RecoveryMetricsTest, InitiallyEmpty) {
  const RecoveryMetrics m;
  EXPECT_EQ(m.losses(), 0u);
  EXPECT_EQ(m.recoveries(), 0u);
  EXPECT_EQ(m.outstanding(), 0u);
  EXPECT_DOUBLE_EQ(m.avgBandwidthHops(100), 0.0);
}

TEST(RecoveryMetricsTest, LossThenRecovery) {
  RecoveryMetrics m;
  m.recordLoss(5, 0, 100.0);
  EXPECT_TRUE(m.wasLost(5, 0));
  EXPECT_FALSE(m.isRecovered(5, 0));
  EXPECT_EQ(m.outstanding(), 1u);

  EXPECT_TRUE(m.recordRecovery(5, 0, 130.0));
  EXPECT_TRUE(m.isRecovered(5, 0));
  EXPECT_EQ(m.outstanding(), 0u);
  EXPECT_DOUBLE_EQ(m.latency().mean(), 30.0);
}

TEST(RecoveryMetricsTest, DuplicateRecoveryIgnored) {
  RecoveryMetrics m;
  m.recordLoss(5, 0, 100.0);
  EXPECT_TRUE(m.recordRecovery(5, 0, 130.0));
  EXPECT_FALSE(m.recordRecovery(5, 0, 140.0));
  EXPECT_EQ(m.recoveries(), 1u);
  EXPECT_DOUBLE_EQ(m.latency().mean(), 30.0);
}

TEST(RecoveryMetricsTest, RecoveryWithoutLossIgnored) {
  RecoveryMetrics m;
  EXPECT_FALSE(m.recordRecovery(5, 0, 130.0));
  EXPECT_EQ(m.recoveries(), 0u);
}

TEST(RecoveryMetricsTest, DuplicateLossThrows) {
  RecoveryMetrics m;
  m.recordLoss(5, 0, 100.0);
  EXPECT_THROW(m.recordLoss(5, 0, 200.0), std::logic_error);
}

TEST(RecoveryMetricsTest, EarlyRepairClampsToZero) {
  // Repair arriving before the scheduled detection => latency 0, not
  // negative.
  RecoveryMetrics m;
  m.recordLoss(5, 0, 100.0);
  EXPECT_TRUE(m.recordRecovery(5, 0, 80.0));
  EXPECT_DOUBLE_EQ(m.latency().mean(), 0.0);
}

TEST(RecoveryMetricsTest, DistinguishesClientsAndSequences) {
  RecoveryMetrics m;
  m.recordLoss(1, 7, 0.0);
  m.recordLoss(2, 7, 0.0);
  m.recordLoss(1, 8, 0.0);
  EXPECT_EQ(m.losses(), 3u);
  EXPECT_TRUE(m.recordRecovery(1, 7, 10.0));
  EXPECT_FALSE(m.isRecovered(2, 7));
  EXPECT_FALSE(m.isRecovered(1, 8));
  EXPECT_EQ(m.outstanding(), 2u);
}

TEST(RecoveryMetricsTest, AvgBandwidth) {
  RecoveryMetrics m;
  m.recordLoss(1, 0, 0.0);
  m.recordLoss(2, 0, 0.0);
  m.recordRecovery(1, 0, 5.0);
  m.recordRecovery(2, 0, 9.0);
  EXPECT_DOUBLE_EQ(m.avgBandwidthHops(50), 25.0);
}

TEST(RecoveryMetricsTest, RejectsHugeSequence) {
  RecoveryMetrics m;
  EXPECT_THROW(m.recordLoss(1, 1ULL << 40, 0.0), std::invalid_argument);
}

TEST(RecoveryMetricsTest, AbandonWritesOffPendingLossesOnly) {
  RecoveryMetrics m;
  m.recordLoss(5, 0, 100.0);
  m.recordLoss(5, 1, 110.0);
  m.recordLoss(6, 0, 100.0);
  EXPECT_TRUE(m.recordRecovery(5, 0, 120.0));  // already recovered: kept

  EXPECT_EQ(m.abandonClient(5), 1u);  // only the pending seq 1
  EXPECT_EQ(m.abandoned(), 1u);
  EXPECT_EQ(m.recoveries(), 1u);
  EXPECT_EQ(m.outstanding(), 1u);  // client 6's loss is untouched
  EXPECT_TRUE(m.isRecovered(5, 0));

  // A repair arriving after the crash is void.
  EXPECT_FALSE(m.recordRecovery(5, 1, 200.0));
  EXPECT_EQ(m.recoveries(), 1u);

  // Abandoning again is a no-op.
  EXPECT_EQ(m.abandonClient(5), 0u);
  EXPECT_EQ(m.abandoned(), 1u);
}

TEST(RecoveryMetricsTest, OutstandingExcludesAbandoned) {
  RecoveryMetrics m;
  m.recordLoss(1, 0, 0.0);
  m.recordLoss(2, 0, 0.0);
  EXPECT_EQ(m.outstanding(), 2u);
  m.abandonClient(1);
  EXPECT_EQ(m.outstanding(), 1u);
  m.recordRecovery(2, 0, 5.0);
  EXPECT_EQ(m.outstanding(), 0u);  // all losses accounted: recovered or dead
}

TEST(RecoveryMetricsTest, ResilienceCountersAccumulate) {
  RecoveryMetrics m;
  EXPECT_EQ(m.retries(), 0u);
  EXPECT_EQ(m.timeouts(), 0u);
  m.recordRetry();
  m.recordRetry();
  m.recordTimeout(7);
  m.recordTimeout(7);
  m.recordTimeout(9);
  m.recordBlacklist(7);
  m.recordFailover(3);
  m.recordSourceFallback(3);
  EXPECT_EQ(m.retries(), 2u);
  EXPECT_EQ(m.timeouts(), 3u);
  EXPECT_EQ(m.timeoutsFor(7), 2u);
  EXPECT_EQ(m.timeoutsFor(9), 1u);
  EXPECT_EQ(m.timeoutsFor(8), 0u);  // never timed out
  EXPECT_EQ(m.timeoutsByTarget().size(), 2u);
  EXPECT_EQ(m.blacklistEvents(), 1u);
  EXPECT_EQ(m.failovers(), 1u);
  EXPECT_EQ(m.sourceFallbacks(), 1u);
}

TEST(RecoveryMetricsTest, AbandonLossWritesOffOneSessionExplicitly) {
  RecoveryMetrics m;
  m.recordLoss(3, 7, 100.0);
  m.recordLoss(3, 8, 100.0);

  EXPECT_TRUE(m.abandonLoss(3, 7));
  EXPECT_EQ(m.abandoned(), 1u);
  EXPECT_EQ(m.abandonedSessions(), 1u);  // watchdog-style, not a crash sweep
  EXPECT_EQ(m.outstanding(), 1u);

  // Abandoning again, an unknown pair, or a recovered pair: all refused.
  EXPECT_FALSE(m.abandonLoss(3, 7));
  EXPECT_FALSE(m.abandonLoss(9, 0));
  EXPECT_TRUE(m.recordRecovery(3, 8, 150.0));
  EXPECT_FALSE(m.abandonLoss(3, 8));
  EXPECT_EQ(m.abandoned(), 1u);
  EXPECT_EQ(m.outstanding(), 0u);

  // A repair arriving after the watchdog gave up is void.
  EXPECT_FALSE(m.recordRecovery(3, 7, 200.0));
  EXPECT_EQ(m.recoveries(), 1u);

  // Per-client terminal accounting matches.
  EXPECT_EQ(m.lossesFor(3), 2u);
  EXPECT_EQ(m.recoveriesFor(3), 1u);
  EXPECT_EQ(m.abandonedFor(3), 1u);
  EXPECT_EQ(m.outstandingFor(3), 0u);
}

TEST(RecoveryMetricsTest, AbandonedSessionsExcludesCrashWriteOffs) {
  RecoveryMetrics m;
  m.recordLoss(1, 0, 0.0);
  m.recordLoss(2, 0, 0.0);
  EXPECT_TRUE(m.abandonLoss(1, 0));
  EXPECT_EQ(m.abandonClient(2), 1u);
  EXPECT_EQ(m.abandoned(), 2u);
  EXPECT_EQ(m.abandonedSessions(), 1u);  // only the explicit one
}

TEST(RecoveryMetricsTest, LatencyDistribution) {
  RecoveryMetrics m;
  for (std::uint64_t i = 0; i < 10; ++i) {
    m.recordLoss(1, i, 0.0);
    m.recordRecovery(1, i, static_cast<double>(i * 10));
  }
  const Summary s = m.latency().summarize();
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.mean, 45.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 90.0);
}

TEST(RecoveryMetricsTest, DigestIsOrderFreeButSeesEveryRecord) {
  // Terminal records folded in another order read the same digest.
  const auto run = [](bool reversed, double t5, double t6) {
    RecoveryMetrics m;
    m.recordLoss(5, 0, 100.0);
    m.recordLoss(6, 0, 100.0);
    m.recordLoss(7, 1, 90.0);
    m.recordAttempt(5, 0);
    if (reversed) {
      m.abandonLoss(7, 1, 400.0);
      m.recordRecovery(6, 0, t6, Terminal::kSourceRepair);
      m.recordRecovery(5, 0, t5, Terminal::kPeerRepair);
    } else {
      m.recordRecovery(5, 0, t5, Terminal::kPeerRepair);
      m.recordRecovery(6, 0, t6, Terminal::kSourceRepair);
      m.abandonLoss(7, 1, 400.0);
    }
    return m;
  };
  const RecoveryMetrics forward = run(false, 130.0, 150.0);
  EXPECT_NE(forward.digest(), 0u);
  EXPECT_EQ(run(true, 130.0, 150.0).digest(), forward.digest());
  // Two clients' recovery times swapped: every count and the latency sum
  // hold, the digest does not.
  const RecoveryMetrics swapped = run(false, 150.0, 130.0);
  EXPECT_EQ(swapped.recoveries(), forward.recoveries());
  EXPECT_EQ(swapped.latency().mean(), forward.latency().mean());
  EXPECT_NE(swapped.digest(), forward.digest());
}

TEST(RecoveryMetricsTest, DigestFoldsTerminalKindAndAttempts) {
  const auto digestOf = [](Terminal how, int attempts) {
    RecoveryMetrics m;
    m.recordLoss(5, 0, 100.0);
    for (int i = 0; i < attempts; ++i) m.recordAttempt(5, 0);
    m.recordRecovery(5, 0, 130.0, how);
    m.recordAttempt(5, 0);  // after the end: not counted
    return m.digest();
  };
  const std::uint64_t base = digestOf(Terminal::kPeerRepair, 1);
  EXPECT_EQ(digestOf(Terminal::kPeerRepair, 1), base);
  EXPECT_NE(digestOf(Terminal::kSourceRepair, 1), base);
  EXPECT_NE(digestOf(Terminal::kPeerRepair, 2), base);
  // A crash write-off folds every pending loss of the client.
  RecoveryMetrics m;
  m.recordLoss(5, 0, 100.0);
  m.recordLoss(5, 1, 110.0);
  EXPECT_EQ(m.abandonClient(5, 200.0), 2u);
  EXPECT_NE(m.digest(), 0u);
}

}  // namespace
}  // namespace rmrn::metrics
