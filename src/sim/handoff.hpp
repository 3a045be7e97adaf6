// Cross-region handoff records for the conservative parallel engine
// (sim/parallel_engine.hpp; DESIGN.md §14).
//
// A ShardHandoff is a packet bound for another region: the sending region
// has already decided every loss/chaos outcome up to the handoff and its
// arrival time, so only *surviving* packets are handed off.  A unicast walks
// its whole route in the sending region and crosses once, as its delivery;
// a flood crosses at every region boundary, since agents in every region
// must receive it.  Handoffs are trivially copyable records — the receiving
// region re-derives any pointer state (staged loss patterns) from shared
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
/// the lookahead argument) as one event at node `next`.  `kind` selects
/// which other fields are meaningful:
///   kDeliver — a unicast's delivery at `next`, its route already walked;
///   kFloodCursor — a tree flood crossing into `next` from `came_from`,
///       keyed `key` (for a forced-pattern flood the *staged* pattern,
///       whose arena id is the same in every region), with the flood's
///       boundary/down_only state and `send_hash`, the hash its chaos draws
///       start from: the receiver opens a flood record that resumes at
///       `next`.
struct ShardHandoff {
  TimeMs at = 0.0;
  /// The time the sender decided the transfer; the receiver schedules its
  /// event as decided then (Simulator::scheduleDecidedEventAt).
  TimeMs decided = 0.0;
  EventKind kind = EventKind::kDeliver;
  Packet packet;
  net::NodeId next = net::kInvalidNode;
  // kFloodCursor
  SendKey key = 0;
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
