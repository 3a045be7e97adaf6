// Test helper: runs ad-hoc test code at chosen simulated times.
//
// The engine only schedules typed events (sim/event.hpp), so a test that
// wants "crash this client at t = 25 ms" or "probe the session count at
// t = 18 ms" registers the callback here; it rides the queue as a timer
// event whose payload is the callback's index, in the same (time, insertion
// order) sequence as every other event.  Test-only: src/ has no callback
// lane.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "sim/event.hpp"
#include "sim/simulator.hpp"

namespace rmrn::test_support {

class ScheduledCalls final : public sim::EventSink {
 public:
  explicit ScheduledCalls(sim::Simulator& sim) : sim_(&sim) {}

  ScheduledCalls(const ScheduledCalls&) = delete;
  ScheduledCalls& operator=(const ScheduledCalls&) = delete;

  /// Runs `call` at absolute time `time` (Simulator::scheduleEventAt rules).
  sim::EventId at(sim::TimeMs time, std::function<void()> call) {
    return sim_->scheduleEventAt(time, this, add(std::move(call)));
  }

  /// Runs `call` `delay` after the simulator's now().
  sim::EventId after(sim::TimeMs delay, std::function<void()> call) {
    return sim_->scheduleEventAfter(delay, this, add(std::move(call)));
  }

  void onEvent(const sim::EventRecord& event) override {
    calls_[event.data.timer.a]();
  }

 private:
  sim::EventRecord add(std::function<void()> call) {
    sim::EventRecord record{sim::EventKind::kTimer, {}};
    record.data.timer = sim::TimerEvent{0, calls_.size(), 0, 0};
    // A deque keeps the running callback in place while it schedules more.
    calls_.push_back(std::move(call));
    return record;
  }

  sim::Simulator* sim_;
  std::deque<std::function<void()>> calls_;
};

}  // namespace rmrn::test_support
