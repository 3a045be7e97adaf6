// Discrete-event simulation driver: the clock plus the event queue.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.hpp"

namespace rmrn::sim {

class Simulator {
 public:
  [[nodiscard]] TimeMs now() const { return now_; }

  /// Schedules `record` for `sink` (sim/event.hpp) at absolute simulated
  /// time `at`, which must not be in the past, or `delay >= 0` after now().
  /// Allocation-free at steady state.
  EventId scheduleEventAt(TimeMs at, EventSink* sink,
                          const EventRecord& record);
  EventId scheduleEventAfter(TimeMs delay, EventSink* sink,
                             const EventRecord& record);
  /// Schedules `record` at `at` as if it had been scheduled at the earlier
  /// time `decided` (sim/event_queue.hpp): events due at the same time
  /// fire as they would have, had it been.  It cannot be cancelled.
  void scheduleDecidedEventAt(TimeMs at, TimeMs decided, EventSink* sink,
                              const EventRecord& record) {
    queue_.scheduleDecidedEvent(at, decided, sink, record);
  }

  /// Schedules flood `flood`'s cursor for `sink` at `at` (not in the past)
  /// on the queue's cursor lane (sim/event_queue.hpp).
  void scheduleCursorAt(TimeMs at, EventSink* sink, std::uint32_t flood) {
    if (at < now_) {
      throw std::invalid_argument("Simulator: scheduling into the past");
    }
    queue_.scheduleCursor(at, sink, flood);
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains or the clock would pass `until`
  /// (infinity = run to completion).  Returns the number of events fired.
  std::uint64_t run(TimeMs until = kForever);

  /// Fires exactly one event if any is pending; returns whether one fired.
  bool step();

  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Absolute time of the earliest pending event, kForever when idle — the
  /// per-region horizon input of the conservative parallel driver
  /// (sim/parallel_engine.hpp).
  [[nodiscard]] TimeMs nextEventTime() const {
    return queue_.empty() ? kForever : queue_.nextTime();
  }

  [[nodiscard]] std::size_t pendingEvents() const {
    return queue_.pendingCount();
  }
  /// Of pendingEvents(): flood cursors on the cursor lane.
  [[nodiscard]] std::size_t pendingCursors() const {
    return queue_.laneSize();
  }

  /// Cumulative events fired over the simulator's lifetime (all run()/step()
  /// calls) — the throughput numerator the drivers report as events/sec.
  [[nodiscard]] std::uint64_t eventsProcessed() const { return total_fired_; }

  /// The share of eventsProcessed() with the given kind (sim/event.hpp).
  [[nodiscard]] std::uint64_t eventsProcessed(EventKind kind) const {
    return queue_.firedOf(kind);
  }

  static constexpr TimeMs kForever = 1e300;

 private:
  TimeMs now_ = 0.0;
  std::uint64_t total_fired_ = 0;
  EventQueue queue_;
};

}  // namespace rmrn::sim
