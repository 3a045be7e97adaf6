// Cross-region handoff records for the conservative parallel engine
// (sim/parallel_engine.hpp; DESIGN.md §14).
//
// A ShardHandoff is a packet crossing a region boundary: the sending region
// has already decided its loss/chaos outcomes for the crossing hop and its
// arrival time, so only *surviving* traversals are handed off.  Handoffs
// are trivially copyable records — the receiving region re-derives any
// pointer state (unicast routes, staged loss patterns) from shared
// immutable structures, so nothing in a handoff aliases sender-owned
// memory.
#pragma once

#include <cstdint>
#include <type_traits>

#include "net/types.hpp"
#include "sim/event.hpp"
#include "sim/packet.hpp"

namespace rmrn::sim {

/// One cross-region packet transfer, scheduled to materialize in the
/// destination region at absolute time `at` (>= the next epoch's start, by
/// the lookahead argument).  `key` is the send's loss key, which the
/// receiver keeps drawing with (for a forced-pattern flood it names the
/// *staged* pattern, whose arena id is the same in every region).  `kind`
/// selects which other fields are meaningful:
///   kUnicastResume — a unicast crossing hop `hop` of its route: the receiver
///       rebuilds the route `ufrom -> uto` from shared routing and resumes
///       it at hop `hop + 1`;
///   kFloodCursor — a tree flood crossing into `next` from `came_from`,
///       with the flood's boundary/down_only state and `send_hash`, the
///       hash its chaos draws start from: the receiver opens a flood record
///       that resumes at `next`.
/// kDeliver never crosses: deliveries happen at the node that owns them.
struct ShardHandoff {
  TimeMs at = 0.0;
  /// The time the sender decided the crossing; the receiver schedules the
  /// resume as decided then (Simulator::scheduleDecidedEventAt).
  TimeMs decided = 0.0;
  EventKind kind = EventKind::kUnicastResume;
  Packet packet;
  SendKey key = 0;
  // kUnicastResume
  net::NodeId ufrom = net::kInvalidNode;
  net::NodeId uto = net::kInvalidNode;
  std::uint32_t hop = 0;
  // kFloodCursor
  net::NodeId next = net::kInvalidNode;
  net::NodeId came_from = net::kInvalidNode;
  net::NodeId boundary = net::kInvalidNode;
  bool down_only = false;
  std::uint64_t send_hash = 0;
};
static_assert(std::is_trivially_copyable_v<ShardHandoff>,
              "handoffs are copied across threads by value");

/// One entry of a region's outbox: a handoff and the region it is bound for.
/// An outbox is a std::vector<RoutedHandoff> in push order; the engine
/// empties it at every barrier and keeps its capacity, so the steady state
/// appends without allocating.
struct RoutedHandoff {
  std::uint32_t dst_region = 0;
  ShardHandoff handoff;
};

}  // namespace rmrn::sim
