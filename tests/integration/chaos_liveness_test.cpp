// Liveness over the chaos grid: every scheme, in every cell of the
// `rmrn_cli chaos` grid, for seeds 1-3, must return with every loss either
// recovered or explicitly abandoned (residual 0), none of them a
// source-reachable client's (residual_reachable 0), and every adopted
// failover plan audit-clean.  A scheme that never stops re-requesting under
// some cell hangs here instead of finishing.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>

#include "harness/experiment.hpp"
#include "support/chaos_configs.hpp"

namespace rmrn::harness {
namespace {

// ctest lists each instance with gtest's byte dump of its cell, which opens
// with the low byte of the cell's `partition` pointer.  The grid's labels are
// copied to fixed offsets of one 256-byte-aligned block, so that byte, and
// with it the listed instance name, does not move with where the linker
// happens to put string literals.  The offsets are the ones the instances
// were first listed with.
constexpr std::size_t kLabelOffsets[] = {0x13, 0x23, 0x34, 0x45, 0x57, 0x69,
                                         0x7C, 0x8F, 0xA3, 0xB5, 0xC8, 0xDB};
static_assert(std::size(kLabelOffsets) == std::size(kChaosGrid));

struct alignas(256) LabelBlock {
  char bytes[256];
};

constexpr LabelBlock makeLabelBlock() {
  LabelBlock block{};
  for (std::size_t i = 0; i < std::size(kChaosGrid); ++i) {
    const char* label = kChaosGrid[i].partition;
    for (std::size_t j = 0; label[j] != '\0'; ++j) {
      block.bytes[kLabelOffsets[i] + j] = label[j];
    }
  }
  return block;
}

constexpr LabelBlock kLabelBlock = makeLabelBlock();

constexpr std::array<ChaosCell, std::size(kChaosGrid)> makeLivenessGrid() {
  std::array<ChaosCell, std::size(kChaosGrid)> cells{};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = kChaosGrid[i];
    cells[i].partition = kLabelBlock.bytes + kLabelOffsets[i];
  }
  return cells;
}

constexpr std::array<ChaosCell, std::size(kChaosGrid)> kLivenessGrid =
    makeLivenessGrid();

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
    ::testing::Combine(::testing::ValuesIn(kLivenessGrid),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const auto& cell_seed) {
      return test_support::cellTestName(std::get<0>(cell_seed.param)) +
             "_s" + std::to_string(std::get<1>(cell_seed.param));
    });

}  // namespace
}  // namespace rmrn::harness
