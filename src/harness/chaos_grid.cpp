#include "harness/chaos_grid.hpp"

#include <sstream>

namespace rmrn::harness {

ExperimentConfig chaosConfig(ExperimentConfig base, const ChaosCell& cell) {
  // Every failover replan RP adopts is re-refereed by the PlanAuditor with
  // the blacklisted peers excluded.
  base.audit_failover_plans = true;
  // Under link chaos the watchdog (not the retry budget) is the terminal
  // authority: a session must ride out a whole flap/partition-heal outage
  // — during which every request dies — without running out of attempts,
  // so that only genuinely unreachable clients are ever abandoned.  With
  // capped exponential backoff, 256 attempts outlast the 10 s watchdog.
  base.protocol.health.retry_budget = 256;

  const double span = base.num_packets * base.data_interval_ms;
  sim::FaultPlan& plan = base.faults;
  plan = sim::FaultPlan{};
  plan.seed = base.seed;
  plan.at_ms = 0.4 * span;
  plan.stagger_ms = base.data_interval_ms;
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
  return base;
}

std::string chaosCellName(const ChaosCell& cell) {
  std::ostringstream name;
  name << "part=" << cell.partition << " flap=" << cell.flap_fraction * 100.0
       << "% dup=" << cell.duplicate_prob * 100.0
       << "% jitter=" << cell.jitter_ms << "ms";
  return name.str();
}

}  // namespace rmrn::harness
