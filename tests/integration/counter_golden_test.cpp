// Golden pins for every run counter runExperiment reports.
//
// Each counter of a ProtocolResult is pinned for all six recovery schemes
// on one small seeded lossy-recovery config, under a client-crash plan and
// under two chaos-grid cells (heal25 x flap15 x dup/jitter, and a permanent
// partition).  The crash and chaos tests keep their historical "Rp" names;
// they pin every scheme.
// The values were captured from seeded runs; any change means a counter is
// read, summed or derived differently, which is a behavioural change, not a
// tolerance issue.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "harness/experiment.hpp"
#include "support/chaos_configs.hpp"

namespace rmrn::harness {
namespace {

using test_support::chaosConfig;
using test_support::lossyConfig;

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
constexpr CounterGolden kCrash[] = {
    {ProtocolKind::kSrm, 456, 435, 19462, 635, 100, 396, 1986, 111, 0, 0, 0, 0,
     21, 0, 0, 0, 0, 0, 0, 0, 456, 435, 0, 0, 0, 0, 7901, {0, 0, 6738,
     1163}, 12880.477005478491, 44.740229885057474},
    {ProtocolKind::kRma, 456, 436, 8715, 635, 108, 186, 1097, 121, 515, 82, 0,
     67, 20, 0, 0, 0, 0, 0, 0, 0, 456, 436, 0, 0, 0, 0, 3718, {640, 0,
     2072, 1006}, 462.48589915670044, 19.988532110091743},
    {ProtocolKind::kRp, 456, 437, 6503, 635, 677, 802, 0, 655, 687, 10, 10,
     437, 19, 0, 0, 0, 0, 0, 0, 0, 456, 437, 0, 0, 0, 0, 2533, {1155, 0,
     200, 1178}, 676.53977775863791, 14.881006864988558},
    {ProtocolKind::kSourceDirect, 456, 433, 6066, 635, 652, 765, 0, 575, 575,
     0, 0, 451, 23, 0, 0, 0, 0, 0, 0, 0, 456, 433, 0, 0, 0, 0, 2352, {1086,
     0, 200, 1066}, 570.60027181180612, 14.009237875288683},
    {ProtocolKind::kParityFec, 456, 435, 5702, 635, 319, 209, 0, 41, 41, 0, 0,
     0, 21, 0, 0, 0, 0, 0, 0, 0, 456, 435, 0, 0, 152, 492, 2398, {319, 0,
     1479, 600}, 115.95324724918773, 13.108045977011495},
    {ProtocolKind::kCodedRlc, 456, 442, 6205, 635, 338, 236, 0, 83, 83, 0, 0,
     0, 14, 0, 0, 0, 0, 0, 0, 0, 456, 442, 0, 0, 192, 534, 2565, {338, 0,
     1575, 652}, 322.91917905405307, 14.038461538461538},
};
constexpr CounterGolden kHealedChaos[] = {
    {ProtocolKind::kSrm, 620, 615, 44482, 1427, 289, 863, 6883, 106, 0, 0, 0,
     0, 5, 0, 895, 5344, 5137, 0, 5, 0, 620, 615, 0, 0, 0, 0, 19223, {0, 0,
     17067, 2156}, 915.69192909415153, 72.328455284552845},
    {ProtocolKind::kRma, 635, 635, 16615, 1058, 122, 409, 3779, 50, 498, 68, 0,
     60, 0, 0, 420, 2072, 428, 0, 0, 0, 635, 635, 0, 0, 0, 0, 7906, {1198,
     0, 4773, 1935}, 427.7641825289495, 26.165354330708663},
    {ProtocolKind::kRp, 639, 639, 10850, 770, 1382, 1266, 443, 714, 749, 11,
     11, 624, 0, 0, 157, 1348, 523, 0, 0, 0, 639, 639, 0, 0, 0, 0, 4925,
     {2486, 0, 249, 2190}, 508.87233756943345, 16.979655712050079},
    {ProtocolKind::kSourceDirect, 638, 637, 10976, 1185, 1462, 1363, 399, 763,
     763, 0, 0, 638, 1, 0, 182, 1438, 586, 0, 1, 0, 638, 637, 0, 0, 0, 0,
     5092, {2467, 0, 422, 2203}, 521.94702547377756, 17.23076923076923},
    {ProtocolKind::kParityFec, 638, 638, 21286, 1649, 762, 602, 0, 98, 98, 0,
     0, 0, 0, 0, 615, 2727, 0, 0, 0, 0, 638, 638, 0, 0, 349, 736, 9609,
     {762, 0, 7207, 1640}, 274.98060565977391, 33.363636363636367},
    {ProtocolKind::kCodedRlc, 643, 643, 19775, 1288, 729, 547, 0, 76, 76, 0, 0,
     0, 0, 0, 492, 2385, 0, 0, 0, 0, 643, 643, 0, 0, 350, 719, 8766, {729,
     0, 6431, 1606}, 218.68974051512888, 30.754276827371694},
};
constexpr CounterGolden kPermanentPartition[] = {
    {ProtocolKind::kSrm, 549, 414, 15836, 583, 95, 462, 1450, 218, 0, 0, 0, 0,
     135, 0, 384, 0, 0, 0, 135, 9, 319, 312, 0, 0, 0, 0, 7267, {0, 0, 5215,
     2052}, 622.71082080893677, 38.251207729468597},
    {ProtocolKind::kRma, 549, 428, 15403, 583, 78, 4479, 919, 6031, 6666, 96,
     0, 176, 121, 0, 6291, 0, 0, 0, 121, 9, 319, 319, 0, 0, 0, 0, 10023,
     {532, 0, 1518, 7973}, 356.78363299150567, 35.988317757009348},
    {ProtocolKind::kRp, 549, 351, 8520, 583, 526, 680, 0, 2550, 2585, 11, 11,
     535, 198, 0, 2110, 0, 0, 0, 198, 9, 319, 314, 0, 0, 0, 0, 4983, {920,
     0, 171, 3892}, 420.231110677299, 24.273504273504273},
    {ProtocolKind::kSourceDirect, 549, 363, 9245, 583, 564, 949, 0, 2953, 2953,
     0, 0, 549, 186, 0, 2441, 0, 0, 0, 186, 9, 319, 318, 0, 0, 0, 0, 5358,
     {927, 0, 171, 4260}, 448.35937578601198, 25.46831955922865},
    {ProtocolKind::kParityFec, 549, 423, 6539, 583, 303, 204, 0, 285, 285, 0,
     0, 0, 126, 0, 422, 0, 0, 0, 126, 9, 319, 319, 0, 0, 181, 834, 3406,
     {303, 0, 1429, 1674}, 313.10644248197099, 15.458628841607565},
    {ProtocolKind::kCodedRlc, 549, 419, 6061, 583, 288, 273, 0, 420, 420, 0, 0,
     0, 130, 0, 514, 0, 0, 0, 130, 9, 319, 319, 0, 0, 173, 969, 3299, {288,
     0, 1217, 1794}, 150.15613313169777, 14.465393794749403},
};

constexpr ProtocolKind kSchemes[] = {
    ProtocolKind::kSrm,       ProtocolKind::kRma,
    ProtocolKind::kRp,        ProtocolKind::kSourceDirect,
    ProtocolKind::kParityFec, ProtocolKind::kCodedRlc};

/// Runs every scheme on `config` and checks each against its row.
void expectAllSchemes(const ExperimentConfig& config,
                      const CounterGolden (&goldens)[6]) {
  const ExperimentResult result = runExperiment(config, kSchemes);
  for (const CounterGolden& golden : goldens) expectCounters(result, golden);
}

TEST(ExperimentCounterGolden, AllSchemesLossyRecovery) {
  expectAllSchemes(lossyConfig(), kAllSchemes);
}

TEST(ExperimentCounterGolden, RpUnderClientCrashes) {
  ExperimentConfig config = lossyConfig();
  config.audit_failover_plans = true;
  config.faults.seed = 5;
  config.faults.crash_fraction = 0.2;
  config.faults.at_ms = 0.4 * config.num_packets * config.data_interval_ms;
  expectAllSchemes(config, kCrash);
}

TEST(ExperimentCounterGolden, RpUnderChaosGridCell) {
  // heal25 x flap15 x dup15/jitter2.
  expectAllSchemes(chaosConfig(kChaosGrid[7]), kHealedChaos);
}

TEST(ExperimentCounterGolden, RpUnderPermanentPartition) {
  // perm25 x no flaps x no dup/jitter: the partitioned clients stay
  // unreachable at the run's end.
  expectAllSchemes(chaosConfig(kChaosGrid[8]), kPermanentPartition);
}

}  // namespace
}  // namespace rmrn::harness
