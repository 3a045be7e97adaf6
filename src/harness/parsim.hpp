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
// reproduces serial output bit for bit.  Regions r >= 1 draw from their own
// per-region substreams, so with lossy recovery a multi-region run differs
// from the serial one; with lossless recovery links it matches it exactly.
#pragma once

#include <cstdint>

#include "harness/transfer.hpp"
#include "net/topology.hpp"
#include "sim/fault_injector.hpp"

namespace rmrn::harness {

struct ParsimConfig {
  /// Target worker regions for the RegionMap (the crown is extra);
  /// <= 1 collapses to a single region with infinite lookahead.
  std::uint32_t target_regions = 8;
  /// Requested pool lanes (clamped to host concurrency; 0 = one per core).
  unsigned workers = 1;
};

struct ParsimReport {
  /// Merged transfer results, same shape as the serial runTransfer().
  TransferReport transfer;

  // Engine accounting.
  std::uint32_t regions = 0;
  unsigned lanes = 0;             // pool lanes actually available
  std::uint64_t epochs = 0;       // conservative barrier rounds
  std::uint64_t handoffs = 0;     // cross-region packet transfers
  std::uint64_t events = 0;       // events fired across all regions
  std::uint64_t region_runs = 0;  // busy regions run, summed over epochs
  double lookahead_ms = 0.0;      // 0 when a single region ran unbounded

  // Resilience counters merged over regions in canonical region order.
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
/// the same plan in every region, mirroring the serial chaos harness.
[[nodiscard]] ParsimReport runParallelTransfer(
    const net::Topology& topology, const TransferConfig& config,
    const ParsimConfig& parallel, const sim::FaultPlan* faults = nullptr);

}  // namespace rmrn::harness
