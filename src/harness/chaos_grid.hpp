// The link-chaos scenario grid (DESIGN.md §9.5): partition (none / healed /
// permanent) x link flaps x per-link duplication plus reorder jitter.
// `rmrn_cli chaos` sweeps it into BENCH_chaos.json, and the chaos liveness
// and counter-golden tests run the same cells.
#pragma once

#include <string>

#include "harness/experiment.hpp"

namespace rmrn::harness {

/// One cell of the grid.
struct ChaosCell {
  const char* partition;  // "none", "heal25" or "perm25"
  double partition_fraction;
  double heal;  // partition heal time as a fraction of the data span; 0 =
                // permanent
  double flap_fraction;
  double duplicate_prob;
  double jitter_ms;
};

/// The 12 cells in sweep order; the all-zero first cell is the chaos-off
/// baseline.
inline constexpr ChaosCell kChaosGrid[] = {
    {"none", 0.0, 0.0, 0.0, 0.0, 0.0},
    {"none", 0.0, 0.0, 0.0, 0.15, 2.0},
    {"none", 0.0, 0.0, 0.15, 0.0, 0.0},
    {"none", 0.0, 0.0, 0.15, 0.15, 2.0},
    {"heal25", 0.25, 0.2, 0.0, 0.0, 0.0},
    {"heal25", 0.25, 0.2, 0.0, 0.15, 2.0},
    {"heal25", 0.25, 0.2, 0.15, 0.0, 0.0},
    {"heal25", 0.25, 0.2, 0.15, 0.15, 2.0},
    {"perm25", 0.25, 0.0, 0.0, 0.0, 0.0},
    {"perm25", 0.25, 0.0, 0.0, 0.15, 2.0},
    {"perm25", 0.25, 0.0, 0.15, 0.0, 0.0},
    {"perm25", 0.25, 0.0, 0.15, 0.15, 2.0},
};

/// `base` under `cell`'s fault plan, with audited failover plans and a
/// retry budget that outlasts the watchdog.  Fault times scale with the
/// data span (num_packets x data_interval_ms), so shorter sweeps keep the
/// same shape; chaos hits at 40% of it.
[[nodiscard]] ExperimentConfig chaosConfig(ExperimentConfig base,
                                           const ChaosCell& cell);

/// The cell's row name, e.g. "part=heal25 flap=15% dup=15% jitter=2ms".
[[nodiscard]] std::string chaosCellName(const ChaosCell& cell);

}  // namespace rmrn::harness
