// Conservative-lookahead parallel driver over per-region simulators
// (DESIGN.md §14).
//
// The engine owns the synchronization skeleton only: a worker pool, the
// R x R mailbox matrix, and the epoch loop.  The per-region worlds —
// Simulator, SimNetwork (in shard mode), protocol agents — are built and
// owned by the caller (harness/parsim.cpp) and attached by region id.
//
// Epoch loop (all coordination on the driver thread; compute on the pool):
//   1. drain every mailbox into its destination region in canonical order
//      (per destination: sources ascending, then a total sort by arrival
//      time with the append index as tie-break — i.e. stable by time);
//   2. T = min over regions of the next pending event time; done when T is
//      infinite and nothing was injected;
//   3. horizon = min(T + lookahead, until);
//   4. parallelFor over regions: each runs its simulator to the horizon,
//      pushing region-leaving packets into the mailboxes.
//
// Safety: a packet crossing regions is in flight for at least the lookahead
// L (minimum cross-region link delay), so anything emitted during an epoch
// arrives at >= T + L = the epoch horizon, which no receiver has passed.
// Determinism: the region decomposition, every region's event order, and
// the barrier drain order are all independent of the worker count, so a
// seeded run is bit-identical for any number of workers (the pool only
// changes which thread executes a region, never what the region computes).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/network.hpp"
#include "sim/region_map.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace rmrn::sim {

class ParallelEngine {
 public:
  struct Stats {
    std::uint64_t epochs = 0;    // barrier rounds executed
    std::uint64_t handoffs = 0;  // cross-region packets transferred
    std::uint64_t events = 0;    // events fired across all regions
    double lookahead_ms = 0.0;   // the conservative horizon width
    std::uint32_t regions = 0;
    unsigned lanes = 0;  // pool execution lanes actually available
  };

  /// Ring capacity of each SPSC mailbox; overflow spills to a lock, so the
  /// capacity tunes performance, not correctness.
  static constexpr std::size_t kMailboxCapacity = 1024;

  /// `workers` is the requested lane count (clamped by the pool to the
  /// host's concurrency; 0 = one lane per core).
  ParallelEngine(const RegionMap& regions, unsigned workers);

  /// The outbox region `r`'s SimNetwork must emit into (enableShardMode).
  [[nodiscard]] ShardOutbox& outboxFor(std::uint32_t r);

  /// Registers region `r`'s world.  Both must outlive the engine's run.
  void attach(std::uint32_t r, Simulator* simulator, SimNetwork* network);

  /// Runs every region to completion (or to `until`), returning aggregate
  /// statistics.  All regions must be attached.
  Stats run(TimeMs until = Simulator::kForever);

  [[nodiscard]] const RegionMap& regions() const { return regions_; }
  [[nodiscard]] unsigned lanes() const { return pool_.size(); }

 private:
  /// Routes handoffs from one source region into the mailbox matrix.
  class RegionOutbox final : public ShardOutbox {
   public:
    RegionOutbox(ParallelEngine* engine, std::uint32_t src)
        : engine_(engine), src_(src) {}
    void emit(std::uint32_t dst_region, const ShardHandoff& handoff) override {
      engine_->mailbox(src_, dst_region).push(handoff);
    }

   private:
    ParallelEngine* engine_;
    std::uint32_t src_;
  };

  [[nodiscard]] ShardMailbox& mailbox(std::uint32_t src, std::uint32_t dst) {
    return *mailboxes_[static_cast<std::size_t>(src) * regions_.numRegions() +
                       dst];
  }

  /// Drains all mailboxes into their regions; returns how many handoffs
  /// were injected.
  std::uint64_t drainAll();

  const RegionMap& regions_;
  util::ThreadPool pool_;
  // R x R mailboxes, row = source region (unique_ptr: mailboxes hold
  // atomics and a mutex, so they never move after construction).
  std::vector<std::unique_ptr<ShardMailbox>> mailboxes_;
  std::vector<RegionOutbox> outboxes_;
  std::vector<Simulator*> simulators_;
  std::vector<SimNetwork*> networks_;
  // Barrier-time scratch, reused every epoch (no steady-state allocation).
  std::vector<ShardHandoff> drained_;
  std::vector<std::uint32_t> order_;
  std::uint64_t epochs_ = 0;
  std::uint64_t injected_ = 0;
};

}  // namespace rmrn::sim
