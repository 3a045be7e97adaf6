#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <functional>

#include "util/check.hpp"

namespace rmrn::sim {

// rmrn-lint: init-phase
ParallelEngine::ParallelEngine(const RegionMap& regions, unsigned workers)
    : regions_(regions), pool_(workers) {
  const std::uint32_t r = regions_.numRegions();
  outboxes_.resize(r);
  simulators_.assign(r, nullptr);
  networks_.assign(r, nullptr);
  inboxes_.resize(r);
  next_times_.assign(r, Simulator::kForever);
  busy_.assign(r, 0);
}

std::vector<RoutedHandoff>& ParallelEngine::outboxFor(std::uint32_t r) {
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

std::uint64_t ParallelEngine::deliverOutboxes() {
  // Sources ascending, each in its push order: every destination's inbox
  // gets the same append order for any worker count.
  std::uint64_t total = 0;
  for (std::vector<RoutedHandoff>& outbox : outboxes_) {
    for (const RoutedHandoff& routed : outbox) {
      // rmrn-lint: allow(HOT-1) inboxes grow to a high-water mark, recycle
      inboxes_[routed.dst_region].push_back(routed.handoff);
    }
    total += outbox.size();
    outbox.clear();
  }
  if (total == 0) return 0;
  for (std::uint32_t dst = 0; dst < inboxes_.size(); ++dst) {
    std::vector<ShardHandoff>& inbox = inboxes_[dst];
    if (inbox.empty()) continue;
    // Canonical injection order: by arrival time, append index breaking
    // ties — a stable-by-time order without stable_sort's allocation.
    // rmrn-lint: allow(HOT-1) scratch grows to a high-water mark, recycles
    order_.resize(inbox.size());
    const auto count = static_cast<std::uint32_t>(order_.size());
    for (std::uint32_t i = 0; i < count; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(),
              [&inbox](std::uint32_t a, std::uint32_t b) {
                if (inbox[a].at != inbox[b].at) {
                  return inbox[a].at < inbox[b].at;
                }
                return a < b;
              });
    for (const std::uint32_t i : order_) {
      networks_[dst]->injectHandoff(inbox[i]);
    }
    inbox.clear();
  }
  return total;
}

ParallelEngine::Stats ParallelEngine::run(TimeMs until) {
  const std::uint32_t num_regions = regions_.numRegions();
  for (std::uint32_t r = 0; r < num_regions; ++r) {
    RMRN_REQUIRE(simulators_[r] != nullptr, "ParallelEngine: region missing");
  }
  const double lookahead = regions_.lookaheadMs();
  const auto eventsFired = [this] {
    std::uint64_t sum = 0;
    for (const Simulator* s : simulators_) sum += s->eventsProcessed();
    return sum;
  };
  const std::uint64_t events_before = eventsFired();

  Stats stats;
  // One std::function for the whole run (parallelFor takes it by reference);
  // the epoch loop itself stays allocation-free.
  TimeMs horizon = 0.0;
  // rmrn-lint: allow(HOT-1) one closure per run(), reused across every epoch
  const std::function<void(std::size_t)> epoch_job =
      [this, &horizon](std::size_t i) { simulators_[busy_[i]]->run(horizon); };

  while (true) {
    stats.handoffs += deliverOutboxes();
    TimeMs next = Simulator::kForever;
    for (std::uint32_t r = 0; r < num_regions; ++r) {
      next_times_[r] = simulators_[r]->nextEventTime();
      next = std::min(next, next_times_[r]);
    }
    if (next >= Simulator::kForever || next > until) break;
    horizon = lookahead == RegionMap::kInfiniteLookahead
                  ? until
                  : std::min(next + lookahead, until);
    std::size_t busy = 0;
    for (std::uint32_t r = 0; r < num_regions; ++r) {
      if (next_times_[r] <= horizon) busy_[busy++] = r;
    }
    pool_.parallelFor(0, busy, epoch_job);
    ++stats.epochs;
    stats.region_runs += busy;
  }

  stats.events = eventsFired() - events_before;
  stats.lookahead_ms =
      lookahead == RegionMap::kInfiniteLookahead ? 0.0 : lookahead;
  stats.regions = num_regions;
  stats.lanes = pool_.size();
  return stats;
}

}  // namespace rmrn::sim
