// Determinism and equivalence contracts of the parallel transfer harness
// (DESIGN.md §14): worker-count invariance (always, including under link
// chaos) and exact agreement with the serial harness when recovery links
// are lossless.
#include "harness/parsim.hpp"

#include <gtest/gtest.h>

#include "completion_hash.hpp"
#include "harness/transfer.hpp"
#include "net/topology.hpp"
#include "support/run_counters.hpp"
#include "util/rng.hpp"

namespace rmrn::harness {
namespace {

net::Topology makeTopology(std::uint64_t seed = 1, std::uint32_t n = 80) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = n;
  return net::generateTopology(config, rng);
}

ParsimConfig parallelConfig(unsigned workers, std::uint32_t regions = 4) {
  ParsimConfig config;
  config.target_regions = regions;
  config.workers = workers;
  return config;
}

/// Full bit-level comparison: every reported value must be identical across
/// worker counts (pool lanes excluded — the host clamps those).
void expectIdentical(const ParsimReport& a, const ParsimReport& b) {
  EXPECT_EQ(a.regions, b.regions);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.lookahead_ms, b.lookahead_ms);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.abandoned_sessions, b.abandoned_sessions);
  EXPECT_EQ(a.chaos_link_drops, b.chaos_link_drops);
  EXPECT_EQ(a.duplicates_created, b.duplicates_created);
  EXPECT_EQ(a.transfer.complete, b.transfer.complete);
  EXPECT_EQ(a.transfer.losses, b.transfer.losses);
  EXPECT_EQ(a.transfer.recoveries, b.transfer.recoveries);
  EXPECT_EQ(a.transfer.data_hops, b.transfer.data_hops);
  EXPECT_EQ(a.transfer.recovery_hops, b.transfer.recovery_hops);
  EXPECT_EQ(a.transfer.duration_ms, b.transfer.duration_ms);
  EXPECT_EQ(a.transfer.avg_recovery_latency_ms,
            b.transfer.avg_recovery_latency_ms);
  EXPECT_EQ(a.transfer.recovery_latency.p95, b.transfer.recovery_latency.p95);
  ASSERT_EQ(a.transfer.completions.size(), b.transfer.completions.size());
  for (std::size_t i = 0; i < a.transfer.completions.size(); ++i) {
    EXPECT_EQ(a.transfer.completions[i].client,
              b.transfer.completions[i].client);
    EXPECT_EQ(a.transfer.completions[i].completed_at_ms,
              b.transfer.completions[i].completed_at_ms);
    EXPECT_EQ(a.transfer.completions[i].losses,
              b.transfer.completions[i].losses);
  }
}

TEST(ParsimTest, WorkerCountInvarianceRp) {
  const net::Topology topo = makeTopology(3);
  TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.num_packets = 40;
  config.loss_prob = 0.2;
  config.lossy_recovery = true;
  config.seed = 7;
  const ParsimReport one = runParallelTransfer(topo, config, parallelConfig(1));
  const ParsimReport two = runParallelTransfer(topo, config, parallelConfig(2));
  const ParsimReport four =
      runParallelTransfer(topo, config, parallelConfig(4));
  expectIdentical(one, two);
  expectIdentical(one, four);
  EXPECT_TRUE(one.transfer.complete);
  EXPECT_GT(one.transfer.losses, 0u);
  EXPECT_GE(one.regions, 2u);
  EXPECT_GT(one.handoffs, 0u);
  EXPECT_GT(one.epochs, 0u);
}

TEST(ParsimTest, WorkerCountInvarianceSrm) {
  const net::Topology topo = makeTopology(4, 60);
  TransferConfig config;
  config.protocol = ProtocolKind::kSrm;
  config.num_packets = 30;
  config.loss_prob = 0.15;
  config.lossy_recovery = true;
  config.seed = 5;
  const ParsimReport one = runParallelTransfer(topo, config, parallelConfig(1));
  const ParsimReport four =
      runParallelTransfer(topo, config, parallelConfig(4));
  expectIdentical(one, four);
  EXPECT_TRUE(one.transfer.complete);
  EXPECT_GT(one.handoffs, 0u);
}

TEST(ParsimTest, SingleRegionRunsUnbounded) {
  const net::Topology topo = makeTopology(6, 50);
  TransferConfig config;
  config.num_packets = 20;
  config.loss_prob = 0.1;
  config.seed = 2;
  const ParsimReport report =
      runParallelTransfer(topo, config, parallelConfig(1, /*regions=*/1));
  EXPECT_TRUE(report.transfer.complete);
  EXPECT_EQ(report.regions, 1u);
  EXPECT_EQ(report.handoffs, 0u);
  // Infinite lookahead: the whole run is one horizon-free epoch.
  EXPECT_EQ(report.epochs, 1u);
  EXPECT_EQ(report.lookahead_ms, 0.0);
}

/// Every counter but the event counts (handoffs add resume events) equal.
void expectCountersMatch(const RunCounters& serial,
                         const RunCounters& parallel) {
  const test_support::NamedCounters expected =
      test_support::namedCounters(serial);
  const test_support::NamedCounters actual =
      test_support::namedCounters(parallel);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].second, expected[i].second) << expected[i].first;
  }
}

/// The parallel run agrees with the serial engine exactly: every counter
/// but the event counts bitwise, latency aggregates up to float summation
/// order.
void expectMatchesSerial(const TransferReport& serial,
                         const ParsimReport& parallel) {
  EXPECT_TRUE(serial.complete);
  EXPECT_TRUE(parallel.transfer.complete);
  expectCountersMatch(serial, parallel.transfer);
  EXPECT_DOUBLE_EQ(parallel.transfer.duration_ms, serial.duration_ms);
  EXPECT_NEAR(parallel.transfer.avg_recovery_latency_ms,
              serial.avg_recovery_latency_ms, 1e-9);
  ASSERT_EQ(parallel.transfer.completions.size(), serial.completions.size());
  for (std::size_t i = 0; i < serial.completions.size(); ++i) {
    EXPECT_EQ(parallel.transfer.completions[i].client,
              serial.completions[i].client);
    EXPECT_DOUBLE_EQ(parallel.transfer.completions[i].completed_at_ms,
                     serial.completions[i].completed_at_ms);
    EXPECT_EQ(parallel.transfer.completions[i].losses,
              serial.completions[i].losses);
  }
}

TEST(ParsimTest, MatchesSerialHarnessWhenRecoveryLossless) {
  // With lossless recovery links the hot path draws nothing outside the
  // pre-drawn (shared) data-loss patterns.
  const net::Topology topo = makeTopology(5, 60);
  TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.num_packets = 40;
  config.loss_prob = 0.15;
  config.lossy_recovery = false;
  config.seed = 11;
  expectMatchesSerial(runTransfer(topo, config),
                      runParallelTransfer(topo, config, parallelConfig(1)));
}

TEST(ParsimTest, LossyRpMatchesSerialHarness) {
  // Recovery losses are keyed by (send, link), and every region keys them
  // with the run's one loss seed, so each region decides every loss as the
  // serial run does.  RP draws nothing else.
  const net::Topology topo = makeTopology(3);
  TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.num_packets = 40;
  config.loss_prob = 0.2;
  config.lossy_recovery = true;
  config.seed = 7;
  const TransferReport serial = runTransfer(topo, config);
  EXPECT_GT(serial.losses, 0u);
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    const ParsimReport parallel =
        runParallelTransfer(topo, config, parallelConfig(workers));
    EXPECT_GE(parallel.regions, 2u);
    EXPECT_GT(parallel.handoffs, 0u);
    expectMatchesSerial(serial, parallel);
  }
}

TEST(ParsimTest, LossySubgroupRpMatchesSerialHarness) {
  // Subgroup recovery repairs with multicastDownInto, whose first crossing
  // (into the subtree root from its parent) may enter another region.
  const net::Topology topo = makeTopology(3);
  TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.rp_source_mode = protocols::SourceRecoveryMode::kSubgroupMulticast;
  config.num_packets = 40;
  config.loss_prob = 0.2;
  config.lossy_recovery = true;
  config.seed = 7;
  const TransferReport serial = runTransfer(topo, config);
  EXPECT_GT(serial.losses, 0u);
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    const ParsimReport parallel =
        runParallelTransfer(topo, config, parallelConfig(workers));
    EXPECT_GT(parallel.handoffs, 0u);
    expectMatchesSerial(serial, parallel);
  }
}

/// A lossy transfer of `kind` on 4 regions matches the serial one at 1, 2
/// and 4 workers.  FEC and coded send parity bursts and run fixed-period
/// repair timers, so handed-over arrivals tie in time with local events;
/// they must tie as in the serial run.
void expectLossySchemeMatchesSerial(ProtocolKind kind) {
  const net::Topology topo = makeTopology(3);
  TransferConfig config;
  config.protocol = kind;
  config.num_packets = 40;
  config.loss_prob = 0.2;
  config.lossy_recovery = true;
  config.seed = 7;
  const TransferReport serial = runTransfer(topo, config);
  EXPECT_GT(serial.losses, 0u);
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    const ParsimReport parallel =
        runParallelTransfer(topo, config, parallelConfig(workers));
    EXPECT_GE(parallel.regions, 2u);
    EXPECT_GT(parallel.handoffs, 0u);
    expectMatchesSerial(serial, parallel);
  }
}

TEST(ParsimTest, LossyFecMatchesSerialHarness) {
  expectLossySchemeMatchesSerial(ProtocolKind::kParityFec);
}

TEST(ParsimTest, LossyCodedMatchesSerialHarness) {
  // Every region also derives the serial run's GF(256) coefficients.
  expectLossySchemeMatchesSerial(ProtocolKind::kCodedRlc);
}

TEST(ParsimTest, MultiRegionLossyGolden) {
  // Pins a lossy multi-region run: every region keys its recovery losses
  // with the run's one loss seed, and all regions share one planner.
  const net::Topology topo = makeTopology(3);
  TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.num_packets = 40;
  config.loss_prob = 0.2;
  config.lossy_recovery = true;
  config.seed = 7;
  const ParsimReport report =
      runParallelTransfer(topo, config, parallelConfig(2));
  EXPECT_EQ(report.regions, 20u);
  EXPECT_EQ(report.epochs, 6099u);
  EXPECT_EQ(report.handoffs, 29731u);
  EXPECT_EQ(report.events, 46255u);
  EXPECT_EQ(report.lookahead_ms, 1.8536410112388431);
  EXPECT_EQ(report.retries, 11409u);
  EXPECT_EQ(report.timeouts, 12588u);
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_EQ(report.abandoned_sessions, 0u);
  EXPECT_EQ(report.chaos_link_drops, 0u);
  EXPECT_EQ(report.duplicates_created, 0u);
  const TransferReport& t = report.transfer;
  EXPECT_TRUE(t.complete);
  EXPECT_EQ(t.duration_ms, 24913.74264446141);
  EXPECT_EQ(t.losses, 1006u);
  EXPECT_EQ(t.recoveries, 1006u);
  EXPECT_EQ(t.avg_recovery_latency_ms, 1458.9237707688567);
  EXPECT_EQ(t.recovery_latency.p50, 504.09980305739577);
  EXPECT_EQ(t.recovery_latency.p95, 6326.0445154348117);
  EXPECT_EQ(t.recovery_latency.max, 24651.740759009372);
  EXPECT_EQ(t.data_hops, 594u);
  EXPECT_EQ(t.recovery_hops, 61609u);
  EXPECT_EQ(t.overhead, 103.71885521885523);
  EXPECT_EQ(t.completions.size(), 29u);
  EXPECT_EQ(completionHash(t), 0xa505466e0acb746dULL);
}

TEST(ParsimTest, CrashFaultsWithHealthAreWorkerInvariant) {
  // Crashed and stalled peers get blacklisted and RP fails over through
  // replanExcluding() on the planner every region shares, concurrently
  // when workers > 1.
  const net::Topology topo = makeTopology(8, 90);
  TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.num_packets = 40;
  config.loss_prob = 0.15;
  config.lossy_recovery = true;
  config.seed = 21;
  config.protocol_config.health.enabled = true;
  const double span = config.num_packets * config.packet_interval_ms;
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.crash_fraction = 0.15;
  plan.stall_fraction = 0.1;
  plan.at_ms = 0.2 * span;
  plan.stagger_ms = config.packet_interval_ms;

  const ParsimReport one =
      runParallelTransfer(topo, config, parallelConfig(1), &plan);
  const ParsimReport two =
      runParallelTransfer(topo, config, parallelConfig(2), &plan);
  const ParsimReport four =
      runParallelTransfer(topo, config, parallelConfig(4), &plan);
  expectIdentical(one, two);
  expectIdentical(one, four);
  EXPECT_GE(one.regions, 2u);
  EXPECT_GT(one.abandoned, 0u);
  EXPECT_GT(one.timeouts, 0u);
}

/// Chaos scenarios from the BENCH_chaos grid (flap + partition + duplication
/// + jitter), replayed at 1, 2 and 4 workers: identical RecoveryMetrics and
/// event counts, the cross-shard chaos determinism gate; under RP also equal
/// to the single-region run.
class ParsimChaosReplay : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ParsimChaosReplay, WorkerSweepIsBitIdentical) {
  const net::Topology topo = makeTopology(9, 60);
  TransferConfig config;
  config.protocol = GetParam();
  config.num_packets = 30;
  config.packet_interval_ms = 5.0;
  config.loss_prob = 0.1;
  config.lossy_recovery = true;
  config.seed = 13;
  config.protocol_config.health.retry_budget = 256;
  const double span = config.num_packets * config.packet_interval_ms;

  sim::FaultPlan plan;  // the chaos grid's heal25 x flap15 x dup/jitter cell
  plan.seed = config.seed;
  plan.at_ms = 0.4 * span;
  plan.stagger_ms = config.packet_interval_ms;
  plan.partition_fraction = 0.25;
  plan.partition_heal_ms = 0.2 * span;
  plan.link_flap_fraction = 0.15;
  plan.flap_down_ms = 0.1 * span;
  plan.flap_cycles = 2;
  plan.flap_period_ms = 0.25 * span;
  plan.duplicate_prob = 0.15;
  plan.reorder_jitter_ms = 2.0;

  const ParsimReport one =
      runParallelTransfer(topo, config, parallelConfig(1), &plan);
  const ParsimReport two =
      runParallelTransfer(topo, config, parallelConfig(2), &plan);
  const ParsimReport four =
      runParallelTransfer(topo, config, parallelConfig(4), &plan);
  expectIdentical(one, two);
  expectIdentical(one, four);
  // Chaos must actually have happened for the gate to mean anything.
  EXPECT_GT(one.chaos_link_drops + one.duplicates_created, 0u);
  EXPECT_GT(one.transfer.losses, 0u);
  // Chaos draws are keyed like loss draws, so RP, which draws nothing else,
  // equals the same plan run on one region.
  if (GetParam() == ProtocolKind::kRp) {
    const TransferReport serial =
        runParallelTransfer(topo, config, parallelConfig(1, /*regions=*/1),
                            &plan)
            .transfer;
    EXPECT_GE(one.regions, 2u);
    for (const ParsimReport* parallel : {&one, &two, &four}) {
      expectMatchesSerial(serial, *parallel);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ParsimChaosReplay,
                         ::testing::Values(ProtocolKind::kRp,
                                           ProtocolKind::kSrm),
                         [](const auto& param_info) {
                           return param_info.param == ProtocolKind::kRp
                                      ? "Rp"
                                      : "Srm";
                         });

TEST(ParsimTest, PermanentPartitionReachabilityMatchesSerial) {
  // A permanent partition leaves clients unreachable at the run's end; each
  // region judges its own clients, and the sums equal the one-region run's.
  const net::Topology topo = makeTopology(9, 60);
  TransferConfig config;
  config.protocol = ProtocolKind::kRp;
  config.num_packets = 30;
  config.loss_prob = 0.1;
  config.lossy_recovery = true;
  config.seed = 13;
  config.protocol_config.health.retry_budget = 256;
  const double span = config.num_packets * config.packet_interval_ms;
  sim::FaultPlan plan;  // the chaos grid's perm25 cell
  plan.seed = config.seed;
  plan.at_ms = 0.4 * span;
  plan.stagger_ms = config.packet_interval_ms;
  plan.partition_fraction = 0.25;

  const TransferReport serial =
      runParallelTransfer(topo, config, parallelConfig(1, /*regions=*/1),
                          &plan)
          .transfer;
  EXPECT_GT(serial.unreachable_clients, 0u);
  EXPECT_GT(serial.abandoned_sessions, 0u);
  EXPECT_EQ(serial.residual_reachable, 0u);
  for (const unsigned workers : {1u, 2u}) {
    SCOPED_TRACE(workers);
    const ParsimReport parallel =
        runParallelTransfer(topo, config, parallelConfig(workers), &plan);
    EXPECT_GE(parallel.regions, 2u);
    expectCountersMatch(serial, parallel.transfer);
  }
}

}  // namespace
}  // namespace rmrn::harness
