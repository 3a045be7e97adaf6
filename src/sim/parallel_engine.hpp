// Conservative-lookahead parallel driver over per-region simulators
// (DESIGN.md §14).
//
// The engine owns the synchronization skeleton only: a worker pool, one
// outbox per region, and the epoch loop.  The per-region worlds —
// Simulator, SimNetwork (in shard mode), protocol agents — are built and
// owned by the caller (harness/parsim.cpp) and attached by region id.
//
// Epoch loop (all coordination on the driver thread; compute on the pool):
//   1. deliver every outbox into its destination regions in canonical order
//      (per destination: sources ascending, then each source's push order,
//      then a total sort by arrival time with that append index as the
//      tie-break — i.e. stable by time);
//   2. T = min over regions of the next pending event time; done when T is
//      infinite (nothing pending, nothing delivered) or past `until`;
//   3. horizon = min(T + lookahead, until);
//   4. parallelFor over the busy regions — those with an event at or before
//      the horizon: each runs its simulator to the horizon, appending
//      region-leaving packets to its own outbox.  The others would fire
//      nothing and leave their clocks alone, so they are skipped; one busy
//      region runs inline on the driver thread.
//
// Safety: a packet crossing regions is in flight for at least the lookahead
// L (minimum cross-region link delay), so anything emitted during an epoch
// arrives at >= T + L = the epoch horizon, which no receiver has passed.
// Each outbox has one writer during an epoch (its region) and is read only
// at the barrier, after the pool join, so it needs no synchronization.
// Determinism: the region decomposition, every region's event order, and
// the barrier delivery order are all independent of the worker count, so a
// seeded run is bit-identical for any number of workers (the pool only
// changes which thread executes a region, never what the region computes).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/handoff.hpp"
#include "sim/network.hpp"
#include "sim/region_map.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace rmrn::sim {

class ParallelEngine {
 public:
  /// Accounting of one run() call.
  struct Stats {
    std::uint64_t epochs = 0;       // barrier rounds executed
    std::uint64_t handoffs = 0;     // cross-region packets transferred
    std::uint64_t events = 0;       // events fired across all regions
    std::uint64_t region_runs = 0;  // busy regions run, summed over epochs
    double lookahead_ms = 0.0;      // 0 when a single region ran unbounded
    std::uint32_t regions = 0;
    unsigned lanes = 0;  // pool execution lanes actually available

    bool operator==(const Stats&) const = default;
  };

  /// `workers` is the requested lane count (clamped by the pool to the
  /// host's concurrency; 0 = one lane per core).
  ParallelEngine(const RegionMap& regions, unsigned workers);

  /// The outbox region `r`'s SimNetwork must append to (enableShardMode).
  [[nodiscard]] std::vector<RoutedHandoff>& outboxFor(std::uint32_t r);

  /// Registers region `r`'s world.  Both must outlive the engine's run.
  void attach(std::uint32_t r, Simulator* simulator, SimNetwork* network);

  /// Runs every region to completion (or to `until`), returning this call's
  /// statistics.  All regions must be attached.
  Stats run(TimeMs until = Simulator::kForever);

  [[nodiscard]] const RegionMap& regions() const { return regions_; }
  [[nodiscard]] unsigned lanes() const { return pool_.size(); }

 private:
  /// Moves every outbox's handoffs into their destination regions; returns
  /// how many were injected.
  std::uint64_t deliverOutboxes();

  const RegionMap& regions_;
  util::ThreadPool pool_;
  // One per source region.  Sized once: networks hold pointers into it.
  std::vector<std::vector<RoutedHandoff>> outboxes_;
  std::vector<Simulator*> simulators_;
  std::vector<SimNetwork*> networks_;
  // Barrier-time scratch, reused every epoch (no steady-state allocation):
  // per-destination handoffs in append order, the sort permutation, each
  // region's next event time, and the epoch's busy regions (a prefix).
  std::vector<std::vector<ShardHandoff>> inboxes_;
  std::vector<std::uint32_t> order_;
  std::vector<TimeMs> next_times_;
  std::vector<std::uint32_t> busy_;
};

}  // namespace rmrn::sim
