#include "sim/simulator.hpp"

#include <limits>
#include <stdexcept>

namespace rmrn::sim {

EventId Simulator::scheduleEventAt(TimeMs at, EventSink* sink,
                                   const EventRecord& record) {
  if (at < now_) {
    throw std::invalid_argument("Simulator: scheduling into the past");
  }
  return queue_.scheduleEvent(at, sink, record);
}

EventId Simulator::scheduleEventAfter(TimeMs delay, EventSink* sink,
                                      const EventRecord& record) {
  if (delay < 0.0) {
    throw std::invalid_argument("Simulator: negative delay");
  }
  return queue_.scheduleEvent(now_ + delay, sink, record);
}

std::uint64_t Simulator::run(TimeMs until) {
  std::uint64_t fired = 0;
  while (queue_.fireNext(until, &now_)) ++fired;
  total_fired_ += fired;
  return fired;
}

bool Simulator::step() {
  if (!queue_.fireNext(std::numeric_limits<TimeMs>::infinity(), &now_)) {
    return false;
  }
  ++total_fired_;
  return true;
}

}  // namespace rmrn::sim
