// Full-reliability property sweep: every scheme must recover every loss for
// any per-link loss probability up to (and beyond) the paper's 20%, on
// multiple topology sizes and seeds — the paper's core robustness claim
// (§5.2: the schemes "can perform as well in unreliable network as in
// reliable network").
#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.hpp"

namespace rmrn::harness {
namespace {

struct SweepParam {
  std::uint32_t num_nodes;
  double loss_prob;
  std::uint64_t seed;
};

class ReliabilitySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ReliabilitySweep, EveryProtocolRecoversEveryLoss) {
  const SweepParam p = GetParam();
  ExperimentConfig config;
  config.num_nodes = p.num_nodes;
  config.loss_prob = p.loss_prob;
  config.num_packets = 25;
  config.seed = p.seed;
  const ProtocolKind kinds[] = {ProtocolKind::kSrm, ProtocolKind::kRma,
                                ProtocolKind::kRp,
                                ProtocolKind::kSourceDirect,
                                ProtocolKind::kParityFec};
  const ExperimentResult result = runExperiment(config, kinds);
  for (const ProtocolResult& r : result.protocols) {
    EXPECT_TRUE(r.fully_recovered)
        << toString(r.kind) << " n=" << p.num_nodes << " p=" << p.loss_prob
        << " seed=" << p.seed;
    EXPECT_EQ(r.losses, r.recoveries) << toString(r.kind);
  }
}

std::string sweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  // Appends rather than chained operator+: GCC 12 reports a -Wrestrict
  // false positive inside the chained std::string concatenation.
  std::string name = "n";
  name.append(std::to_string(info.param.num_nodes))
      .append("_p")
      .append(std::to_string(static_cast<int>(info.param.loss_prob * 100)))
      .append("_s")
      .append(std::to_string(info.param.seed));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    LossAndSize, ReliabilitySweep,
    ::testing::Values(SweepParam{40, 0.02, 1}, SweepParam{40, 0.10, 2},
                      SweepParam{40, 0.20, 3}, SweepParam{40, 0.30, 4},
                      SweepParam{80, 0.05, 5}, SweepParam{80, 0.20, 6},
                      SweepParam{150, 0.05, 7}, SweepParam{150, 0.20, 8}),
    sweepName);

// Recovery latencies stay roughly flat as p grows (paper Fig. 7's main
// observation): compare p = 2% with p = 20% on the same topology seed and
// require the same order of magnitude.
TEST(ReliabilityTrend, LatencyRoughlyFlatInLossProbability) {
  ExperimentConfig low;
  low.num_nodes = 100;
  low.num_packets = 60;
  low.seed = 9;
  low.loss_prob = 0.02;
  ExperimentConfig high = low;
  high.loss_prob = 0.20;
  const ExperimentResult a = runAveragedExperiment(low, 2);
  const ExperimentResult b = runAveragedExperiment(high, 2);
  for (const ProtocolKind kind :
       {ProtocolKind::kSrm, ProtocolKind::kRma, ProtocolKind::kRp}) {
    const double la = a.result(kind).avg_latency_ms;
    const double lb = b.result(kind).avg_latency_ms;
    EXPECT_LT(lb, 5.0 * la) << toString(kind);
    EXPECT_GT(lb, la / 5.0) << toString(kind);
  }
}

}  // namespace
}  // namespace rmrn::harness
