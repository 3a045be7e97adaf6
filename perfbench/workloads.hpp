// The benchmark's four workloads (see README.md in this directory).
//
// Each workload generates its inputs from the seed, then repeats rounds of
// the same work over all of them until its time budget is spent, reporting
// per-input medians over rounds of timings adjusted for the host's speed
// (reference.hpp).  In traced mode half of the budget runs
// untraced rounds and the other half traced rounds, which call each layer's
// public function on its own under a span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Report {
  /// Outcome of the correctness checks; `problems` says what failed.
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics by name (untraced rounds).
  std::map<std::string, double> end_to_end;
  /// Per-layer metrics by name (traced rounds); layers a workload does not
  /// exercise are absent and reported as 0.
  std::map<std::string, double> per_layer;
  /// Simulated values and counts that must repeat exactly for a seed.
  std::map<std::string, double> deterministic;
  /// Thread counts actually used and transfers compared against 1 worker
  /// (noise diagnostics).
  unsigned workers = 1;
  unsigned pool_lanes = 1;
  unsigned identity_checks = 0;
  std::size_t untraced_rounds = 0;
  std::size_t traced_rounds = 0;
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Runs one workload; `tracer` receives the traced rounds' spans.
[[nodiscard]] Report runWorkload(const Options& options, Tracer& tracer);

}  // namespace perfbench
