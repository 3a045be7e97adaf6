#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/run_counters.hpp"

namespace rmrn::harness {
namespace {

ExperimentConfig smallConfig(std::uint64_t seed = 1) {
  ExperimentConfig config;
  config.num_nodes = 60;
  config.loss_prob = 0.05;
  config.num_packets = 40;
  config.seed = seed;
  return config;
}

TEST(ExperimentTest, RunsAllThreeProtocols) {
  const ExperimentResult result = runExperiment(smallConfig());
  ASSERT_EQ(result.protocols.size(), 3u);
  EXPECT_EQ(result.result(ProtocolKind::kSrm).kind, ProtocolKind::kSrm);
  EXPECT_EQ(result.result(ProtocolKind::kRma).kind, ProtocolKind::kRma);
  EXPECT_EQ(result.result(ProtocolKind::kRp).kind, ProtocolKind::kRp);
  EXPECT_EQ(result.num_nodes, 60u);
  EXPECT_GT(result.num_clients, 0.0);
}

TEST(ExperimentTest, IdenticalLossesAcrossProtocols) {
  const ExperimentResult result = runExperiment(smallConfig());
  const auto srm = result.result(ProtocolKind::kSrm).losses;
  const auto rma = result.result(ProtocolKind::kRma).losses;
  const auto rp = result.result(ProtocolKind::kRp).losses;
  EXPECT_EQ(srm, rma);
  EXPECT_EQ(srm, rp);
  EXPECT_GT(srm, 0u);
}

TEST(ExperimentTest, FullReliabilityAchieved) {
  const ExperimentResult result = runExperiment(smallConfig());
  for (const ProtocolResult& r : result.protocols) {
    EXPECT_TRUE(r.fully_recovered) << toString(r.kind);
    EXPECT_EQ(r.losses, r.recoveries) << toString(r.kind);
    EXPECT_GT(r.avg_latency_ms, 0.0) << toString(r.kind);
    EXPECT_GT(r.avg_bandwidth_hops, 0.0) << toString(r.kind);
  }
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  const ExperimentResult a = runExperiment(smallConfig(7));
  const ExperimentResult b = runExperiment(smallConfig(7));
  for (std::size_t i = 0; i < a.protocols.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.protocols[i].avg_latency_ms,
                     b.protocols[i].avg_latency_ms);
    EXPECT_EQ(a.protocols[i].recovery_hops, b.protocols[i].recovery_hops);
    EXPECT_EQ(a.protocols[i].losses, b.protocols[i].losses);
  }
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  const ExperimentResult a = runExperiment(smallConfig(7));
  const ExperimentResult b = runExperiment(smallConfig(8));
  EXPECT_NE(a.result(ProtocolKind::kRp).recovery_hops,
            b.result(ProtocolKind::kRp).recovery_hops);
}

TEST(ExperimentTest, SubsetOfProtocols) {
  const ProtocolKind only_rp[] = {ProtocolKind::kRp};
  const ExperimentResult result = runExperiment(smallConfig(), only_rp);
  ASSERT_EQ(result.protocols.size(), 1u);
  EXPECT_EQ(result.protocols[0].kind, ProtocolKind::kRp);
  EXPECT_THROW((void)result.result(ProtocolKind::kSrm), std::out_of_range);
}

TEST(ExperimentTest, PaperHeadlineOrderingHolds) {
  // The paper's Figs. 5-6 claim at p = 5%: RP latency well below SRM and
  // RMA, RP bandwidth below both, SRM bandwidth highest.  One mid-size
  // topology, averaged over a few seeds for stability.
  ExperimentConfig config = smallConfig(42);
  config.num_nodes = 120;
  config.num_packets = 60;
  const ExperimentResult result = runAveragedExperiment(config, 3);
  const auto& srm = result.result(ProtocolKind::kSrm);
  const auto& rma = result.result(ProtocolKind::kRma);
  const auto& rp = result.result(ProtocolKind::kRp);

  EXPECT_LT(rp.avg_latency_ms, srm.avg_latency_ms);
  EXPECT_LT(rp.avg_latency_ms, rma.avg_latency_ms);
  EXPECT_LT(rp.avg_bandwidth_hops, srm.avg_bandwidth_hops);
  EXPECT_LT(rp.avg_bandwidth_hops, rma.avg_bandwidth_hops);
}

/// Averaging `config` over two seeds, with every scheme, sums every counter
/// of the two single runs and averages their metrics.
void expectAveragingSums(const ExperimentConfig& config) {
  const ProtocolKind kinds[] = {
      ProtocolKind::kSrm,       ProtocolKind::kRma,
      ProtocolKind::kRp,        ProtocolKind::kSourceDirect,
      ProtocolKind::kParityFec, ProtocolKind::kCodedRlc};
  const ExperimentResult one = runExperiment(config, kinds);
  ExperimentConfig second = config;
  second.seed = config.seed + 1;
  const ExperimentResult two = runExperiment(second, kinds);
  const ExperimentResult avg = runAveragedExperiment(config, 2, kinds);

  for (std::size_t i = 0; i < avg.protocols.size(); ++i) {
    const ProtocolResult& a = one.protocols[i];
    const ProtocolResult& b = two.protocols[i];
    const ProtocolResult& sum = avg.protocols[i];
    SCOPED_TRACE(toString(sum.kind));
    const test_support::NamedCounters named_a = test_support::namedCounters(a);
    const test_support::NamedCounters named_b = test_support::namedCounters(b);
    const test_support::NamedCounters named_sum =
        test_support::namedCounters(sum);
    for (std::size_t j = 0; j < named_sum.size(); ++j) {
      EXPECT_EQ(named_sum[j].second, named_a[j].second + named_b[j].second)
          << named_sum[j].first;
    }
    EXPECT_EQ(sum.events_processed, a.events_processed + b.events_processed);
    for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
      EXPECT_EQ(sum.events_by_kind[k],
                a.events_by_kind[k] + b.events_by_kind[k])
          << k;
    }
    EXPECT_EQ(sum.max_link_load, std::max(a.max_link_load, b.max_link_load));
    EXPECT_EQ(sum.plan_audit_violations,
              a.plan_audit_violations + b.plan_audit_violations);
    EXPECT_EQ(sum.fully_recovered, a.fully_recovered && b.fully_recovered);
    EXPECT_NEAR(sum.avg_latency_ms,
                (a.avg_latency_ms + b.avg_latency_ms) / 2.0, 1e-9);
    EXPECT_NEAR(sum.avg_bandwidth_hops,
                (a.avg_bandwidth_hops + b.avg_bandwidth_hops) / 2.0, 1e-9);
  }
  EXPECT_NEAR(avg.num_clients, (one.num_clients + two.num_clients) / 2.0,
              1e-9);
}

TEST(ExperimentTest, AveragingSumsCountsAndAveragesMetrics) {
  // Lossy recovery under client crashes and link chaos (a permanent
  // partition, flaps, duplication and jitter), so that most counters are
  // nonzero.
  ExperimentConfig chaos = smallConfig(3);
  chaos.lossy_recovery = true;
  chaos.audit_failover_plans = true;
  const double span = chaos.num_packets * chaos.data_interval_ms;
  chaos.faults.seed = 3;
  chaos.faults.at_ms = 0.4 * span;
  chaos.faults.crash_fraction = 0.1;
  chaos.faults.partition_fraction = 0.25;
  chaos.faults.link_flap_fraction = 0.15;
  chaos.faults.flap_down_ms = 0.1 * span;
  chaos.faults.flap_cycles = 2;
  chaos.faults.flap_period_ms = 0.25 * span;
  chaos.faults.duplicate_prob = 0.15;
  chaos.faults.reorder_jitter_ms = 2.0;
  expectAveragingSums(chaos);

  // Crashes and stalls without chaos (so no watchdog) and a retry budget
  // of 2: sessions that run out of attempts leave their losses residual.
  ExperimentConfig residual = smallConfig(3);
  residual.lossy_recovery = true;
  residual.faults.seed = 3;
  residual.faults.at_ms = 0.4 * span;
  residual.faults.crash_fraction = 0.1;
  residual.faults.stall_fraction = 0.1;
  residual.protocol.health.retry_budget = 2;
  expectAveragingSums(residual);
}

TEST(ExperimentTest, LoadMetricsPopulated) {
  const ExperimentResult result = runExperiment(smallConfig(41));
  const auto& rp = result.result(ProtocolKind::kRp);
  const auto& srm = result.result(ProtocolKind::kSrm);
  EXPECT_GT(rp.max_link_load, 0u);
  // SRM floods its repairs to the whole group: duplicates abound, while
  // RP's addressed unicasts produce none (or nearly none).
  EXPECT_GT(srm.duplicate_deliveries, rp.duplicate_deliveries);
  EXPECT_EQ(rp.duplicate_deliveries, 0u);
}

TEST(ExperimentTest, NoDirectSourceRestrictionCutsSourceRequests) {
  // The paper motivates the restricted graph with source congestion; verify
  // the restriction actually reduces REQUESTs landing at the source.
  ExperimentConfig free_config = smallConfig(43);
  free_config.num_nodes = 120;
  ExperimentConfig restricted = free_config;
  restricted.rp_planner.allow_direct_source = false;
  const ProtocolKind kinds[] = {ProtocolKind::kRp};
  const auto a = runExperiment(free_config, kinds);
  const auto b = runExperiment(restricted, kinds);
  EXPECT_LT(b.result(ProtocolKind::kRp).source_requests,
            a.result(ProtocolKind::kRp).source_requests);
  EXPECT_TRUE(b.result(ProtocolKind::kRp).fully_recovered);
}

TEST(ExperimentTest, CrossRunDispersionReported) {
  const ExperimentResult single = runExperiment(smallConfig(31));
  for (const ProtocolResult& r : single.protocols) {
    EXPECT_EQ(r.latency_run_stddev, 0.0);
  }
  const ExperimentResult averaged =
      runAveragedExperiment(smallConfig(31), 4);
  for (const ProtocolResult& r : averaged.protocols) {
    EXPECT_GT(r.latency_run_stddev, 0.0) << toString(r.kind);
    EXPECT_GT(r.bandwidth_run_stddev, 0.0) << toString(r.kind);
  }
}

TEST(ExperimentTest, ParallelRunnerMatchesSequentialExactly) {
  // Per-seed runs are pure functions of the seed and aggregation happens in
  // seed order, so the parallel fan-out must be bit-identical.
  const ExperimentConfig config = smallConfig(21);
  const ExperimentResult seq =
      runAveragedExperiment(config, 4, kAllProtocols, 1);
  const ExperimentResult par =
      runAveragedExperiment(config, 4, kAllProtocols, 4);
  ASSERT_EQ(seq.protocols.size(), par.protocols.size());
  EXPECT_EQ(seq.num_clients, par.num_clients);
  for (std::size_t i = 0; i < seq.protocols.size(); ++i) {
    EXPECT_EQ(seq.protocols[i].losses, par.protocols[i].losses);
    EXPECT_EQ(seq.protocols[i].recovery_hops,
              par.protocols[i].recovery_hops);
    EXPECT_EQ(seq.protocols[i].avg_latency_ms,
              par.protocols[i].avg_latency_ms);
    EXPECT_EQ(seq.protocols[i].avg_bandwidth_hops,
              par.protocols[i].avg_bandwidth_hops);
  }
}

TEST(ExperimentTest, ParallelRunnerSingleThreadFallback) {
  const ExperimentConfig config = smallConfig(22);
  const ExperimentResult a = runAveragedExperiment(config, 2);
  const ExperimentResult b =
      runAveragedExperiment(config, 2, kAllProtocols, 1);
  EXPECT_EQ(a.result(ProtocolKind::kRp).avg_latency_ms,
            b.result(ProtocolKind::kRp).avg_latency_ms);
}

TEST(ExperimentTest, ValidatesConfig) {
  ExperimentConfig config = smallConfig();
  config.num_packets = 0;
  EXPECT_THROW(runExperiment(config), std::invalid_argument);
  EXPECT_THROW(runAveragedExperiment(smallConfig(), 0),
               std::invalid_argument);
  EXPECT_THROW(runAveragedExperiment(smallConfig(), 0, kAllProtocols, 1),
               std::invalid_argument);
}

TEST(ExperimentTest, ZeroLossProbabilityMeansNoRecoveries) {
  ExperimentConfig config = smallConfig();
  config.loss_prob = 0.0;
  const ExperimentResult result = runExperiment(config);
  for (const ProtocolResult& r : result.protocols) {
    EXPECT_EQ(r.losses, 0u);
    EXPECT_EQ(r.recovery_hops, 0u);
    EXPECT_TRUE(r.fully_recovered);
  }
}

}  // namespace
}  // namespace rmrn::harness
