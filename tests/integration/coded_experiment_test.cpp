// Coded-repair arm end-to-end: the sliding-window RLC protocol run through
// the real experiment harness against the same Gilbert-Elliott loss draws as
// RP.  Pins full reliability, the source-economy headline (one coded wave
// serves a whole burst's union of losses, so coded source transmissions fall
// below RP's per-sequence source REQUESTs under bursty loss), determinism,
// and that adding the coded arm leaves the legacy protocols' results
// bit-identical.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "harness/transfer.hpp"

namespace rmrn::harness {
namespace {

ExperimentConfig codedBurstConfig(std::uint64_t seed) {
  ExperimentConfig c;
  c.num_nodes = 60;
  c.loss_prob = 0.15;
  c.num_packets = 64;
  c.seed = seed;
  c.mean_burst_packets = 4.0;
  return c;
}

TEST(CodedExperimentTest, RecoversEverythingUnderBurstLoss) {
  const ProtocolKind kinds[] = {ProtocolKind::kCodedRlc};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ExperimentResult result = runExperiment(codedBurstConfig(seed), kinds);
    const ProtocolResult& coded = result.result(ProtocolKind::kCodedRlc);
    EXPECT_TRUE(coded.fully_recovered) << "seed " << seed;
    EXPECT_EQ(coded.losses, coded.recoveries) << "seed " << seed;
    EXPECT_EQ(coded.residual_reachable, 0u) << "seed " << seed;
    EXPECT_GT(coded.losses, 0u) << "seed " << seed;
  }
}

TEST(CodedExperimentTest, CodedSourceLoadBelowRpUnderBursts) {
  // The headline comparison: under bursty loss RP sends one source REQUEST
  // per unrecovered-by-peers (client, sequence) pair, while the coded source
  // multicasts max-over-clients(needed) rows per window.  Aggregated over
  // seeds, the coded arm must touch the source strictly less.
  const ProtocolKind kinds[] = {ProtocolKind::kRp, ProtocolKind::kCodedRlc};
  std::uint64_t rp_source = 0;
  std::uint64_t coded_source = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ExperimentResult result = runExperiment(codedBurstConfig(seed), kinds);
    const ProtocolResult& rp = result.result(ProtocolKind::kRp);
    const ProtocolResult& coded = result.result(ProtocolKind::kCodedRlc);
    EXPECT_TRUE(rp.fully_recovered) << "seed " << seed;
    EXPECT_TRUE(coded.fully_recovered) << "seed " << seed;
    // RP's source transmissions = REQUESTs it answered; coded's = repair
    // waves it multicast (its NACKs are counted separately).
    rp_source += rp.source_requests;
    coded_source += coded.source_repair_multicasts;
    EXPECT_EQ(rp.source_repair_multicasts, 0u);
    EXPECT_GT(coded.fec_nacks_sent, 0u) << "seed " << seed;
  }
  ASSERT_GT(rp_source, 0u);
  EXPECT_LT(coded_source, rp_source);
}

TEST(CodedExperimentTest, CodedArmLeavesLegacyResultsBitIdentical) {
  // Protocols fork disjoint RNG substreams, so appending the coded arm to a
  // run must not perturb the classic three.
  const ExperimentConfig config = codedBurstConfig(7);
  const ProtocolKind with_coded[] = {ProtocolKind::kSrm, ProtocolKind::kRma,
                                     ProtocolKind::kRp,
                                     ProtocolKind::kCodedRlc};
  const ExperimentResult legacy = runExperiment(config);
  const ExperimentResult extended = runExperiment(config, with_coded);
  for (const ProtocolKind kind :
       {ProtocolKind::kSrm, ProtocolKind::kRma, ProtocolKind::kRp}) {
    const ProtocolResult& a = legacy.result(kind);
    const ProtocolResult& b = extended.result(kind);
    EXPECT_EQ(a.losses, b.losses) << toString(kind);
    EXPECT_EQ(a.recoveries, b.recoveries) << toString(kind);
    EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms) << toString(kind);
    EXPECT_EQ(a.avg_bandwidth_hops, b.avg_bandwidth_hops) << toString(kind);
    EXPECT_EQ(a.events_processed, b.events_processed) << toString(kind);
  }
}

TEST(CodedExperimentTest, DeterministicAcrossRepeatedRuns) {
  const ProtocolKind kinds[] = {ProtocolKind::kCodedRlc};
  const ExperimentResult a = runExperiment(codedBurstConfig(11), kinds);
  const ExperimentResult b = runExperiment(codedBurstConfig(11), kinds);
  const ProtocolResult& ra = a.result(ProtocolKind::kCodedRlc);
  const ProtocolResult& rb = b.result(ProtocolKind::kCodedRlc);
  EXPECT_EQ(ra.losses, rb.losses);
  EXPECT_EQ(ra.avg_latency_ms, rb.avg_latency_ms);
  EXPECT_EQ(ra.source_repair_multicasts, rb.source_repair_multicasts);
  EXPECT_EQ(ra.fec_nacks_sent, rb.fec_nacks_sent);
  EXPECT_EQ(ra.events_processed, rb.events_processed);
}

TEST(CodedExperimentTest, AveragedRunsAggregateCodedCounters) {
  const ProtocolKind kinds[] = {ProtocolKind::kCodedRlc};
  const ExperimentConfig config = codedBurstConfig(20);
  const ExperimentResult avg = runAveragedExperiment(config, 3, kinds);
  std::uint64_t waves = 0;
  std::uint64_t nacks = 0;
  for (std::uint32_t r = 0; r < 3; ++r) {
    ExperimentConfig one = config;
    one.seed = config.seed + r;
    const ProtocolResult res =
        runExperiment(one, kinds).result(ProtocolKind::kCodedRlc);
    waves += res.source_repair_multicasts;
    nacks += res.fec_nacks_sent;
  }
  const ProtocolResult& coded = avg.result(ProtocolKind::kCodedRlc);
  EXPECT_EQ(coded.source_repair_multicasts, waves);
  EXPECT_EQ(coded.fec_nacks_sent, nacks);
}

TEST(CodedExperimentTest, TransferCompletesWithCodedArm) {
  net::TopologyConfig topo;
  topo.num_nodes = 50;
  util::Rng rng(3);
  const net::Topology topology = net::generateTopology(topo, rng);
  TransferConfig config;
  config.protocol = ProtocolKind::kCodedRlc;
  config.num_packets = 48;
  config.loss_prob = 0.10;
  config.mean_burst_packets = 3.0;
  const TransferReport report = runTransfer(topology, config);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.losses, report.recoveries);
  EXPECT_GT(report.losses, 0u);
}

}  // namespace
}  // namespace rmrn::harness
