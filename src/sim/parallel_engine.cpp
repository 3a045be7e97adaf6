#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <functional>

#include "util/check.hpp"

namespace rmrn::sim {

// rmrn-lint: init-phase
ParallelEngine::ParallelEngine(const RegionMap& regions, unsigned workers)
    : regions_(regions), pool_(workers) {
  const std::uint32_t r = regions_.numRegions();
  mailboxes_.reserve(static_cast<std::size_t>(r) * r);
  for (std::uint32_t i = 0; i < r * r; ++i) {
    mailboxes_.push_back(std::make_unique<ShardMailbox>(kMailboxCapacity));
  }
  outboxes_.reserve(r);
  for (std::uint32_t src = 0; src < r; ++src) {
    outboxes_.emplace_back(this, src);
  }
  simulators_.assign(r, nullptr);
  networks_.assign(r, nullptr);
}

ShardOutbox& ParallelEngine::outboxFor(std::uint32_t r) {
  RMRN_REQUIRE(r < outboxes_.size(), "ParallelEngine: region out of range");
  return outboxes_[r];
}

void ParallelEngine::attach(std::uint32_t r, Simulator* simulator,
                            SimNetwork* network) {
  RMRN_REQUIRE(r < simulators_.size(), "ParallelEngine: region out of range");
  RMRN_REQUIRE(simulator != nullptr && network != nullptr,
               "ParallelEngine: null region world");
  simulators_[r] = simulator;
  networks_[r] = network;
}

std::uint64_t ParallelEngine::drainAll() {
  const std::uint32_t num_regions = regions_.numRegions();
  std::uint64_t total = 0;
  for (std::uint32_t dst = 0; dst < num_regions; ++dst) {
    drained_.clear();
    for (std::uint32_t src = 0; src < num_regions; ++src) {
      if (src == dst) continue;
      mailbox(src, dst).drain(drained_);
    }
    if (drained_.empty()) continue;
    // Canonical injection order: by arrival time, append index breaking
    // ties — a stable-by-time order without stable_sort's allocation.
    // Append order is (source region ascending, then that region's
    // deterministic push order), so the result never depends on thread
    // scheduling.
    // rmrn-lint: allow(HOT-1) scratch grows to a high-water mark, recycles
    order_.resize(drained_.size());
    const auto count = static_cast<std::uint32_t>(order_.size());
    for (std::uint32_t i = 0; i < count; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                if (drained_[a].at != drained_[b].at) {
                  return drained_[a].at < drained_[b].at;
                }
                return a < b;
              });
    for (const std::uint32_t i : order_) {
      networks_[dst]->injectHandoff(drained_[i]);
    }
    total += drained_.size();
  }
  return total;
}

ParallelEngine::Stats ParallelEngine::run(TimeMs until) {
  const std::uint32_t num_regions = regions_.numRegions();
  for (std::uint32_t r = 0; r < num_regions; ++r) {
    RMRN_REQUIRE(simulators_[r] != nullptr, "ParallelEngine: region missing");
  }
  const double lookahead = regions_.lookaheadMs();
  const std::uint64_t events_before = [&] {
    std::uint64_t sum = 0;
    for (const Simulator* s : simulators_) sum += s->eventsProcessed();
    return sum;
  }();

  // One std::function for the whole run (parallelFor takes it by reference);
  // the epoch loop itself stays allocation-free.
  TimeMs horizon = 0.0;
  // rmrn-lint: allow(HOT-1) one closure per run(), reused across every epoch
  const std::function<void(std::size_t)> epoch_job =
      [this, &horizon](std::size_t r) { simulators_[r]->run(horizon); };

  while (true) {
    injected_ += drainAll();
    TimeMs next = Simulator::kForever;
    for (const Simulator* s : simulators_) {
      next = std::min(next, s->nextEventTime());
    }
    if (next >= Simulator::kForever || next > until) break;
    horizon = lookahead == RegionMap::kInfiniteLookahead
                  ? until
                  : std::min(next + lookahead, until);
    pool_.parallelFor(0, num_regions, epoch_job);
    ++epochs_;
  }

  Stats stats;
  stats.epochs = epochs_;
  stats.handoffs = injected_;
  stats.lookahead_ms =
      lookahead == RegionMap::kInfiniteLookahead ? 0.0 : lookahead;
  stats.regions = num_regions;
  stats.lanes = pool_.size();
  std::uint64_t events_after = 0;
  for (const Simulator* s : simulators_) events_after += s->eventsProcessed();
  stats.events = events_after - events_before;
  return stats;
}

}  // namespace rmrn::sim
