// Experiment shapes shared by the counter goldens and the chaos liveness
// sweep: a small lossy-recovery run, and the fault plan of one cell of the
// `rmrn_cli chaos` grid (partition x link flaps x duplication/jitter).
#pragma once

#include <cstdint>

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

/// One cell of the chaos grid.
struct ChaosCell {
  const char* name;
  double partition_fraction;
  double heal;  // partition heal time as a fraction of the data span; 0 =
                // permanent
  double flap_fraction;
  double duplicate_prob;
  double jitter_ms;
};

/// The 12 cells `rmrn_cli chaos` sweeps, in its order.
inline constexpr ChaosCell kChaosGrid[] = {
    {"none_flap0_dup0", 0.0, 0.0, 0.0, 0.0, 0.0},
    {"none_flap0_dup15", 0.0, 0.0, 0.0, 0.15, 2.0},
    {"none_flap15_dup0", 0.0, 0.0, 0.15, 0.0, 0.0},
    {"none_flap15_dup15", 0.0, 0.0, 0.15, 0.15, 2.0},
    {"heal25_flap0_dup0", 0.25, 0.2, 0.0, 0.0, 0.0},
    {"heal25_flap0_dup15", 0.25, 0.2, 0.0, 0.15, 2.0},
    {"heal25_flap15_dup0", 0.25, 0.2, 0.15, 0.0, 0.0},
    {"heal25_flap15_dup15", 0.25, 0.2, 0.15, 0.15, 2.0},
    {"perm25_flap0_dup0", 0.25, 0.0, 0.0, 0.0, 0.0},
    {"perm25_flap0_dup15", 0.25, 0.0, 0.0, 0.15, 2.0},
    {"perm25_flap15_dup0", 0.25, 0.0, 0.15, 0.0, 0.0},
    {"perm25_flap15_dup15", 0.25, 0.0, 0.15, 0.15, 2.0},
};

/// lossyConfig(seed) under `cell`'s fault plan, set up as `rmrn_cli chaos`
/// sets it: audited failover plans and a retry budget that outlasts the
/// watchdog.
[[nodiscard]] inline harness::ExperimentConfig chaosConfig(
    const ChaosCell& cell, std::uint64_t seed = 5) {
  harness::ExperimentConfig config = lossyConfig(seed);
  config.audit_failover_plans = true;
  config.protocol.health.retry_budget = 256;
  const double span = config.num_packets * config.data_interval_ms;
  sim::FaultPlan& plan = config.faults;
  plan.seed = config.seed;
  plan.at_ms = 0.4 * span;
  plan.stagger_ms = config.data_interval_ms;
  plan.partition_fraction = cell.partition_fraction;
  plan.partition_heal_ms = cell.heal * span;
  plan.link_flap_fraction = cell.flap_fraction;
  if (cell.flap_fraction > 0.0) {
    plan.flap_down_ms = 0.1 * span;
    plan.flap_cycles = 2;
    plan.flap_period_ms = 0.25 * span;
  }
  plan.duplicate_prob = cell.duplicate_prob;
  plan.reorder_jitter_ms = cell.jitter_ms;
  return config;
}

}  // namespace rmrn::test_support
