// Golden pins for every run counter runExperiment reports.
//
// Each counter of a ProtocolResult is pinned for all six recovery schemes
// on one small seeded lossy-recovery config, for RP under a client-crash
// plan and for RP under one chaos-grid cell (heal25 x flap15 x dup/jitter).
// The values were captured from seeded runs; any change means a counter is
// read, summed or derived differently, which is a behavioural change, not a
// tolerance issue.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "harness/experiment.hpp"

namespace rmrn::harness {
namespace {

struct CounterGolden {
  ProtocolKind kind;
  std::uint64_t losses;
  std::uint64_t recoveries;
  std::uint64_t recovery_hops;
  std::uint64_t data_hops;
  std::uint64_t source_requests;
  std::uint64_t max_link_load;
  std::uint64_t duplicate_deliveries;
  std::uint64_t retries;
  std::uint64_t timeouts;
  std::uint64_t blacklist_events;
  std::uint64_t failovers;
  std::uint64_t source_fallbacks;
  std::uint64_t abandoned;
  std::uint64_t residual;
  std::uint64_t chaos_link_drops;
  std::uint64_t duplicates_created;
  std::uint64_t duplicate_requests_suppressed;
  std::uint64_t duplicate_sessions;
  std::uint64_t abandoned_sessions;
  std::uint64_t unreachable_clients;
  std::uint64_t reachable_losses;
  std::uint64_t reachable_recoveries;
  std::uint64_t residual_reachable;
  std::uint64_t plan_audit_violations;
  std::uint64_t source_repair_multicasts;
  std::uint64_t fec_nacks_sent;
  std::uint64_t events_processed;
  std::array<std::uint64_t, sim::kNumEventKinds> events_by_kind;
  double avg_latency_ms;
  double avg_bandwidth_hops;
};

void expectCounters(const ExperimentResult& result,
                    const CounterGolden& golden) {
  SCOPED_TRACE(toString(golden.kind));
  const ProtocolResult& p = result.result(golden.kind);
  EXPECT_EQ(p.losses, golden.losses);
  EXPECT_EQ(p.recoveries, golden.recoveries);
  EXPECT_EQ(p.recovery_hops, golden.recovery_hops);
  EXPECT_EQ(p.data_hops, golden.data_hops);
  EXPECT_EQ(p.source_requests, golden.source_requests);
  EXPECT_EQ(p.max_link_load, golden.max_link_load);
  EXPECT_EQ(p.duplicate_deliveries, golden.duplicate_deliveries);
  EXPECT_EQ(p.retries, golden.retries);
  EXPECT_EQ(p.timeouts, golden.timeouts);
  EXPECT_EQ(p.blacklist_events, golden.blacklist_events);
  EXPECT_EQ(p.failovers, golden.failovers);
  EXPECT_EQ(p.source_fallbacks, golden.source_fallbacks);
  EXPECT_EQ(p.abandoned, golden.abandoned);
  EXPECT_EQ(p.residual, golden.residual);
  EXPECT_EQ(p.chaos_link_drops, golden.chaos_link_drops);
  EXPECT_EQ(p.duplicates_created, golden.duplicates_created);
  EXPECT_EQ(p.duplicate_requests_suppressed,
            golden.duplicate_requests_suppressed);
  EXPECT_EQ(p.duplicate_sessions, golden.duplicate_sessions);
  EXPECT_EQ(p.abandoned_sessions, golden.abandoned_sessions);
  EXPECT_EQ(p.unreachable_clients, golden.unreachable_clients);
  EXPECT_EQ(p.reachable_losses, golden.reachable_losses);
  EXPECT_EQ(p.reachable_recoveries, golden.reachable_recoveries);
  EXPECT_EQ(p.residual_reachable, golden.residual_reachable);
  EXPECT_EQ(p.plan_audit_violations, golden.plan_audit_violations);
  EXPECT_EQ(p.source_repair_multicasts, golden.source_repair_multicasts);
  EXPECT_EQ(p.fec_nacks_sent, golden.fec_nacks_sent);
  EXPECT_EQ(p.events_processed, golden.events_processed);
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    EXPECT_EQ(p.events_by_kind[k], golden.events_by_kind[k]) << k;
  }
  EXPECT_EQ(p.avg_latency_ms, golden.avg_latency_ms);
  EXPECT_EQ(p.avg_bandwidth_hops, golden.avg_bandwidth_hops);
}

// Rows list CounterGolden's fields in order.
constexpr CounterGolden kAllSchemes[] = {
    {ProtocolKind::kSrm, 520, 520, 20764, 635, 98, 428, 3151, 62, 0, 0, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0, 520, 520, 0, 0, 0, 0, 8433, {0, 0, 7189, 1244},
     674.77478188999839, 39.930769230769229},
    {ProtocolKind::kRma, 520, 520, 13475, 635, 47, 436, 2291, 27, 1322, 0, 0,
     41, 0, 0, 0, 0, 0, 0, 0, 0, 520, 520, 0, 0, 0, 0, 6213,
     {1330, 0, 3011, 1872}, 184.98473243241872, 25.91346153846154},
    {ProtocolKind::kRp, 520, 520, 7029, 635, 719, 803, 0, 646, 774, 0, 0, 456,
     0, 0, 0, 0, 0, 0, 0, 0, 520, 520, 0, 0, 0, 0, 2926, {1402, 0, 200, 1324},
     162.23930663115041, 13.517307692307693},
    {ProtocolKind::kSourceDirect, 520, 520, 7258, 635, 796, 845, 0, 738, 738,
     0, 0, 520, 0, 0, 0, 0, 0, 0, 0, 0, 520, 520, 0, 0, 0, 0, 2804,
     {1316, 0, 200, 1288}, 172.22272178011798, 13.957692307692307},
    {ProtocolKind::kParityFec, 520, 520, 7221, 635, 391, 233, 0, 74, 74, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0, 0, 520, 520, 0, 0, 196, 594, 2987,
     {391, 0, 1880, 716}, 133.55783924673955, 13.886538461538462},
    {ProtocolKind::kCodedRlc, 520, 520, 6457, 635, 374, 225, 0, 51, 51, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0, 0, 520, 520, 0, 0, 196, 571, 2675,
     {374, 0, 1630, 671}, 144.46953687625967, 12.417307692307693},
};
constexpr CounterGolden kCrash = {
    ProtocolKind::kRp, 456, 437, 6503, 635, 677, 802, 0, 655, 687, 10, 10,
    437, 19, 0, 0, 0, 0, 0, 0, 0, 456, 437, 0, 0, 0, 0, 2533,
    {1155, 0, 200, 1178}, 676.53977775863791, 14.881006864988558};
constexpr CounterGolden kHealedChaos = {
    ProtocolKind::kRp, 639, 639, 10850, 770, 1382, 1266, 443, 714, 749, 11,
    11, 624, 0, 0, 157, 1348, 523, 0, 0, 0, 639, 639, 0, 0, 0, 0, 4925,
    {2486, 0, 249, 2190}, 508.87233756943345, 16.979655712050079};
constexpr CounterGolden kPermanentPartition = {
    ProtocolKind::kRp, 549, 351, 8520, 583, 526, 680, 0, 2550, 2585, 11, 11,
    535, 198, 0, 2110, 0, 0, 0, 198, 9, 319, 314, 0, 0, 0, 0, 4983,
    {920, 0, 171, 3892}, 420.231110677299, 24.273504273504273};

ExperimentConfig lossyConfig() {
  ExperimentConfig config;
  config.num_nodes = 60;
  config.loss_prob = 0.1;
  config.num_packets = 30;
  config.lossy_recovery = true;
  config.seed = 5;
  return config;
}

TEST(ExperimentCounterGolden, AllSchemesLossyRecovery) {
  const ProtocolKind kinds[] = {
      ProtocolKind::kSrm,       ProtocolKind::kRma,
      ProtocolKind::kRp,        ProtocolKind::kSourceDirect,
      ProtocolKind::kParityFec, ProtocolKind::kCodedRlc};
  const ExperimentResult result = runExperiment(lossyConfig(), kinds);
  for (const CounterGolden& golden : kAllSchemes) {
    expectCounters(result, golden);
  }
}

TEST(ExperimentCounterGolden, RpUnderClientCrashes) {
  ExperimentConfig config = lossyConfig();
  config.audit_failover_plans = true;
  config.faults.seed = 5;
  config.faults.crash_fraction = 0.2;
  config.faults.at_ms = 0.4 * config.num_packets * config.data_interval_ms;
  const ProtocolKind kinds[] = {ProtocolKind::kRp};
  expectCounters(runExperiment(config, kinds), kCrash);
}

/// The chaos grid's plan (rmrn_cli chaos) for one partition x flap x
/// dup/jitter cell; `heal` is the partition's heal time as a fraction of
/// the data span (0 = permanent).
ExperimentConfig chaosConfig(double heal, double flap_fraction,
                             double duplicate_prob, double jitter_ms) {
  ExperimentConfig config = lossyConfig();
  config.audit_failover_plans = true;
  config.protocol.health.retry_budget = 256;
  const double span = config.num_packets * config.data_interval_ms;
  sim::FaultPlan& plan = config.faults;
  plan.seed = config.seed;
  plan.at_ms = 0.4 * span;
  plan.stagger_ms = config.data_interval_ms;
  plan.partition_fraction = 0.25;
  plan.partition_heal_ms = heal * span;
  plan.link_flap_fraction = flap_fraction;
  if (flap_fraction > 0.0) {
    plan.flap_down_ms = 0.1 * span;
    plan.flap_cycles = 2;
    plan.flap_period_ms = 0.25 * span;
  }
  plan.duplicate_prob = duplicate_prob;
  plan.reorder_jitter_ms = jitter_ms;
  return config;
}

TEST(ExperimentCounterGolden, RpUnderChaosGridCell) {
  // heal25 x flap15 x dup/jitter.
  const ExperimentConfig config = chaosConfig(0.2, 0.15, 0.15, 2.0);
  const ProtocolKind kinds[] = {ProtocolKind::kRp};
  expectCounters(runExperiment(config, kinds), kHealedChaos);
}

TEST(ExperimentCounterGolden, RpUnderPermanentPartition) {
  // perm25 x no flaps x no dup/jitter: the partitioned clients stay
  // unreachable at the run's end.
  const ExperimentConfig config = chaosConfig(0.0, 0.0, 0.0, 0.0);
  const ProtocolKind kinds[] = {ProtocolKind::kRp};
  expectCounters(runExperiment(config, kinds), kPermanentPartition);
}

}  // namespace
}  // namespace rmrn::harness
