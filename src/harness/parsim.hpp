// Reliable-transfer harness on the conservative sharded engine
// (sim/parallel_engine.hpp, DESIGN.md §14).
//
// The topology is split into a canonical region set (sim/RegionMap) that
// depends only on (topology, target_regions) — never on the worker count —
// and each region gets its own World (harness/world.hpp): Simulator,
// SimNetwork in shard mode, RecoveryMetrics, protocol instance and, under
// faults, its own FaultInjector replica.  Regions share the topology,
// routing, the pre-drawn loss patterns and one RpPlanner.  Workers only
// change which thread advances a region, so a seeded run is bit-identical
// for any worker count; that is the determinism contract the parsim tests
// pin.
//
// The serial runTransfer() is the single-region run: region 0 draws from
// the same RNG substreams the serial harness always used, so a 1-region run
// reproduces serial output bit for bit.  Recovery losses and link chaos are
// keyed draws under the run's one loss seed, and the coded arm's
// coefficients come from the run's one stream, so every region decides each
// draw as the serial run does.  A handed-over send is scheduled as decided
// at the time its sender decided it, so events that tie in time to the bit
// (FEC and coded parity bursts, fixed-period repair timers) fire in the
// serial order, and a multi-region run matches the serial one, lossy
// recovery and chaos included (DESIGN.md §14).  SRM's timer jitter comes
// from per-region substreams (r >= 1), so SRM runs are reproducible per
// seed but differ from the serial run.
#pragma once

#include <cstdint>

#include "harness/transfer.hpp"
#include "net/topology.hpp"
#include "sim/fault_injector.hpp"
#include "sim/parallel_engine.hpp"

namespace rmrn::harness {

struct ParsimConfig {
  /// Target worker regions for the RegionMap (the crown is extra);
  /// <= 1 collapses to a single region with infinite lookahead.
  std::uint32_t target_regions = 8;
  /// Requested pool lanes (clamped to host concurrency; 0 = one per core).
  unsigned workers = 1;
};

/// The engine's accounting of the run (regions, lanes, epochs, handoffs,
/// events, region runs, lookahead) and the merged transfer.
struct ParsimReport : sim::ParallelEngine::Stats {
  /// Merged transfer results, same shape as the serial runTransfer().
  TransferReport transfer;

  // Copies of transfer's counters, kept only because perfbench/ reads them
  // by these names; remove them with the next change to the benchmark.
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::size_t abandoned = 0;
  std::size_t abandoned_sessions = 0;
  std::uint64_t chaos_link_drops = 0;
  std::uint64_t duplicates_created = 0;

  /// Field-by-field; `lanes` included, so compare reports from hosts with
  /// different core counts only after equalizing it.
  bool operator==(const ParsimReport&) const = default;
};

/// Runs one transfer over `topology` on the parallel engine.  Deterministic
/// in (topology, config, parallel.target_regions, faults) — the worker
/// count does not affect any reported value.  `faults` (optional) replays
/// the same plan in every region, resolved as the serial harness does.
[[nodiscard]] ParsimReport runParallelTransfer(
    const net::Topology& topology, const TransferConfig& config,
    const ParsimConfig& parallel, const sim::FaultPlan* faults = nullptr);

}  // namespace rmrn::harness
