// Packet-level tracing, in the spirit of ns-2 trace files.
//
// SimNetwork records one TraceEvent per hop transmission, per-link drop and
// agent delivery into an installed TraceRecorder (zero overhead otherwise).
// A crossing is recorded when its send decides it, ahead of the clock, so
// records come out of time order.  TraceRecorder keeps them in one
// canonical order that does not depend on the order they were recorded in,
// answers simple queries and dumps an ns-2-style ASCII trace ("+" send,
// "d" drop, "r" receive).
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "net/types.hpp"
#include "sim/packet.hpp"

namespace rmrn::sim {

/// Members are declared in trace order, so the defaulted comparison is the
/// canonical order: by time, then kind (deliveries, sends, drops: a node
/// receives a packet before it forwards it), then from, to and the packet's
/// fields in declaration order.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kDeliver,  // an agent (client/source) received it
    kHopSend,  // packet put on the link from -> to
    kHopDrop,  // the link dropped it
  };

  double time_ms = 0.0;
  Kind kind = Kind::kHopSend;
  net::NodeId from = net::kInvalidNode;  // kInvalidNode for deliveries
  net::NodeId to = net::kInvalidNode;    // the receiving node/agent
  Packet packet;

  friend auto operator<=>(const TraceEvent&, const TraceEvent&) = default;
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

class TraceRecorder {
 public:
  /// Adds one record, in any order: reads see canonical order.
  void record(const TraceEvent& event);

  /// Every record so far, in canonical order (TraceEvent's comparison).
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
