// Experiment shapes shared by the counter goldens and the chaos liveness
// sweep: a small lossy-recovery run, and that run under one cell of the
// chaos grid `rmrn_cli chaos` sweeps (harness/chaos_grid.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "harness/chaos_grid.hpp"
#include "harness/experiment.hpp"

namespace rmrn::test_support {

/// n = 60, p = 10%, 30 packets, lossy recovery.
[[nodiscard]] inline harness::ExperimentConfig lossyConfig(
    std::uint64_t seed = 5) {
  harness::ExperimentConfig config;
  config.num_nodes = 60;
  config.loss_prob = 0.1;
  config.num_packets = 30;
  config.lossy_recovery = true;
  config.seed = seed;
  return config;
}

/// lossyConfig(seed) under `cell`, set up as `rmrn_cli chaos` sets it up.
[[nodiscard]] inline harness::ExperimentConfig chaosConfig(
    const harness::ChaosCell& cell, std::uint64_t seed = 5) {
  return harness::chaosConfig(lossyConfig(seed), cell);
}

/// A test-name-safe cell name, e.g. "heal25_flap15_dup0".
[[nodiscard]] inline std::string cellTestName(const harness::ChaosCell& cell) {
  return std::string(cell.partition) + "_flap" +
         std::to_string(std::lround(cell.flap_fraction * 100.0)) + "_dup" +
         std::to_string(std::lround(cell.duplicate_prob * 100.0));
}

}  // namespace rmrn::test_support
