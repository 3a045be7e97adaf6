#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

namespace rmrn::sim {

void TraceRecorder::record(const TraceEvent& event) {
  if (!events_.empty() && event < events_.back()) sorted_ = false;
  events_.push_back(event);
}

const std::vector<TraceEvent>& TraceRecorder::events() const {
  if (!sorted_) {
    std::sort(events_.begin(), events_.end());
    sorted_ = true;
  }
  return events_;
}

std::size_t TraceRecorder::count(TraceEvent::Kind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events().begin(), events().end(),
                    [kind](const TraceEvent& e) { return e.kind == kind; }));
}

std::size_t TraceRecorder::countType(Packet::Type type) const {
  return static_cast<std::size_t>(std::count_if(
      events().begin(), events().end(),
      [type](const TraceEvent& e) { return e.packet.type == type; }));
}

std::vector<TraceEvent> TraceRecorder::forSequence(std::uint64_t seq) const {
  std::vector<TraceEvent> result;
  std::copy_if(events().begin(), events().end(), std::back_inserter(result),
               [seq](const TraceEvent& e) { return e.packet.seq == seq; });
  return result;
}

void TraceRecorder::dump(std::ostream& out) const {
  for (const TraceEvent& e : events()) {
    out << toChar(e.kind) << ' ' << std::fixed << std::setprecision(3)
        << e.time_ms << ' ';
    if (e.from == net::kInvalidNode) {
      out << '-';
    } else {
      out << e.from;
    }
    out << ' ' << e.to << ' ' << toString(e.packet.type) << ' '
        << e.packet.seq << '\n';
  }
}

}  // namespace rmrn::sim
