// Liveness over the chaos grid: every scheme, in every cell of the
// `rmrn_cli chaos` grid, for seeds 1-3, must return with every loss either
// recovered or explicitly abandoned (residual 0), none of them a
// source-reachable client's (residual_reachable 0), and every adopted
// failover plan audit-clean.  A scheme that never stops re-requesting under
// some cell hangs here instead of finishing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "harness/experiment.hpp"
#include "support/chaos_configs.hpp"

namespace rmrn::harness {
namespace {

using test_support::ChaosCell;

class ChaosLiveness
    : public ::testing::TestWithParam<std::tuple<ChaosCell, std::uint64_t>> {};

TEST_P(ChaosLiveness, EverySchemeTerminatesClean) {
  const auto& [cell, seed] = GetParam();
  const ProtocolKind kinds[] = {
      ProtocolKind::kSrm,       ProtocolKind::kRma,
      ProtocolKind::kRp,        ProtocolKind::kSourceDirect,
      ProtocolKind::kParityFec, ProtocolKind::kCodedRlc};
  const ExperimentResult result =
      runExperiment(test_support::chaosConfig(cell, seed), kinds);
  for (const ProtocolKind kind : kinds) {
    SCOPED_TRACE(toString(kind));
    const ProtocolResult& r = result.result(kind);
    EXPECT_EQ(r.residual, 0u);
    EXPECT_EQ(r.residual_reachable, 0u);
    EXPECT_EQ(r.plan_audit_violations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChaosLiveness,
    ::testing::Combine(::testing::ValuesIn(test_support::kChaosGrid),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const auto& cell_seed) {
      return std::string(std::get<0>(cell_seed.param).name) + "_s" +
             std::to_string(std::get<1>(cell_seed.param));
    });

}  // namespace
}  // namespace rmrn::harness
