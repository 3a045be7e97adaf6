// Shared campaign settings for bench/figures (Figs. 5-8) and the
// ablations, which rerun parts of the paper's §5 campaign with one design
// choice changed.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"

namespace rmrn::bench {

inline harness::ExperimentConfig baseConfig() {
  harness::ExperimentConfig config;
  config.num_packets = 60;
  config.data_interval_ms = 50.0;
  config.seed = 20030401;  // fixed campaign seed (ICPP 2003)
  return config;
}

}  // namespace rmrn::bench
