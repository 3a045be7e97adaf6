// Typed, POD-sized event records: the only kind of event the engine runs.
//
// Every event is one of three small trivially copyable payloads stored
// inline in the EventQueue's slab (event_queue.hpp), so scheduling one
// performs no heap allocation, and dispatched through a single `EventSink`
// virtual call on fire.  Cold-path schedulers use the same records:
// FaultInjector and harness::World each implement EventSink and schedule
// TimerEvents whose payload indexes their own schedule (a fault, a data
// packet).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "net/types.hpp"
#include "sim/keyed_loss.hpp"
#include "sim/packet.hpp"

namespace rmrn::sim {

/// Simulated time in milliseconds.
using TimeMs = double;

/// Generation-counted event handle: (generation << 32) | slab slot.  Zero is
/// never a valid handle (generations start at 1), so value-initialized ids in
/// protocol session structs stay inert.
using EventId = std::uint64_t;

/// Order-preserving integer image of a finite time: a < b iff
/// timeOrder(a) < timeOrder(b).  -0.0 folds into +0.0 so equal times stay
/// equal.  Both heaps of the engine (EventQueue's and a closed-form flood's
/// frontier) compare times through it, so each ordering is one unsigned
/// compare that compiles without branches.
[[nodiscard]] inline std::uint64_t timeOrder(TimeMs t) {
  constexpr std::uint64_t kSignBit = 1ull << 63;
  const auto bits = std::bit_cast<std::uint64_t>(t + 0.0);
  const auto negative =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (negative | kSignBit);
}
/// Inverse of timeOrder().
[[nodiscard]] inline TimeMs timeOfOrder(std::uint64_t order) {
  constexpr std::uint64_t kSignBit = 1ull << 63;
  const auto negative =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(~order) >> 63);
  return std::bit_cast<TimeMs>(order ^ (negative | kSignBit));
}

enum class EventKind : std::uint8_t {
  kDeliver,      // hand `packet` to the agent at `at`
  kFloodCursor,  // a flood's next agent arrival, or a handed-over flood
  kTimer,        // timer: protocol waits, fault firings, data sends
};

inline constexpr std::size_t kNumEventKinds = 3;

[[nodiscard]] constexpr std::string_view toString(EventKind kind) {
  switch (kind) {
    case EventKind::kDeliver:
      return "deliver";
    case EventKind::kFloodCursor:
      return "flood-cursor";
    case EventKind::kTimer:
      return "timer";
  }
  return "?";
}

/// Packet arrival at an agent.  `direct` skips the fault triage (used by the
/// kSlowed re-delivery, which re-checks only the crash state on fire).
struct DeliverEvent {
  net::NodeId at;
  bool direct;
  Packet packet;
};

/// The next arrival of a tree flood: an agent on the flood's own schedule,
/// or in shard mode the node a handed-over flood entered.  `flood` indexes
/// SimNetwork's flood arena, whose record holds the arrival (node, link it
/// came over) and the flood's frontier of not-yet-expanded links.
struct FloodCursorEvent {
  std::uint32_t flood;
};

/// Timer: an opaque kind tag plus three payload words, dispatched back to
/// the scheduling sink (see RecoveryProtocol::onTimer).
struct TimerEvent {
  std::uint32_t kind;
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
};

/// Tagged payload union.  All members are trivially copyable, so slab slots
/// can be reused without destructor bookkeeping.
union EventData {
  DeliverEvent deliver;
  FloodCursorEvent cursor;
  TimerEvent timer;

  EventData() : timer{} {}
};

struct EventRecord {
  EventKind kind = EventKind::kTimer;
  EventData data;
};
static_assert(sizeof(EventRecord) <= 64,
              "an event record fits in one cache line");

/// Receiver of typed events.  SimNetwork implements it for the packet kinds;
/// RecoveryProtocol, FaultInjector and harness::World for timers.  The sink
/// outlives every event it scheduled (all are torn down with the Simulator
/// at end of run).
class EventSink {
 public:
  virtual void onEvent(const EventRecord& event) = 0;

 protected:
  ~EventSink() = default;
};

}  // namespace rmrn::sim
