// Packet-level tracing, in the spirit of ns-2 trace files.
//
// SimNetwork emits one TraceEvent per hop transmission, per-link drop and
// agent delivery when a sink is installed (zero overhead otherwise).  A
// send's hop records are emitted when its schedule is decided, ahead of the
// clock, so a sink sees records out of time order; TraceRecorder keeps them
// ordered stably by time, answers simple queries and dumps an ns-2-style
// ASCII trace ("+" send, "d" drop, "r" receive).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "net/types.hpp"
#include "sim/packet.hpp"

namespace rmrn::sim {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kHopSend,  // packet put on the link from -> to
    kHopDrop,  // the link dropped it
    kDeliver,  // an agent (client/source) received it
  };

  double time_ms = 0.0;
  Kind kind = Kind::kHopSend;
  net::NodeId from = net::kInvalidNode;  // kInvalidNode for deliveries
  net::NodeId to = net::kInvalidNode;    // the receiving node/agent
  Packet packet;
};

[[nodiscard]] constexpr char toChar(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kHopSend:
      return '+';
    case TraceEvent::Kind::kHopDrop:
      return 'd';
    case TraceEvent::Kind::kDeliver:
      return 'r';
  }
  return '?';
}

using TraceSink = std::function<void(const TraceEvent&)>;

class TraceRecorder {
 public:
  /// Sink to install on a SimNetwork; holds a reference to this recorder.
  [[nodiscard]] TraceSink sink();

  /// Every record so far, stably ordered by time: records of one time keep
  /// the order they were emitted in.
  [[nodiscard]] const std::vector<TraceEvent>& events() const;
  void clear() {
    events_.clear();
    sorted_ = true;
  }

  [[nodiscard]] std::size_t count(TraceEvent::Kind kind) const;
  [[nodiscard]] std::size_t countType(Packet::Type type) const;

  /// Events concerning one data sequence number, in order.
  [[nodiscard]] std::vector<TraceEvent> forSequence(std::uint64_t seq) const;

  /// ns-2-style dump: "<+|d|r> <time> <from> <to> <type> <seq>".
  void dump(std::ostream& out) const;

 private:
  // In emission order until a read sorts it; sorted_ says whether it is.
  mutable std::vector<TraceEvent> events_;
  mutable bool sorted_ = true;
};

}  // namespace rmrn::sim
