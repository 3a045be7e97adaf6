// Typed, POD-sized event records: the only kind of event the engine runs.
//
// Every event is one of four small trivially copyable payloads stored
// inline in the EventQueue's slab (event_queue.hpp), so scheduling one
// performs no heap allocation, and dispatched through a single `EventSink`
// virtual call on fire.  Cold-path schedulers use the same records:
// FaultInjector and harness::World each implement EventSink and schedule
// TimerEvents whose payload indexes their own schedule (a fault, a data
// packet).
#pragma once

#include <cstdint>

#include "net/types.hpp"
#include "sim/packet.hpp"

namespace rmrn::sim {

/// Simulated time in milliseconds.
using TimeMs = double;

/// Generation-counted event handle: (generation << 32) | slab slot.  Zero is
/// never a valid handle (generations start at 1), so value-initialized ids in
/// protocol session structs stay inert.
using EventId = std::uint64_t;

enum class EventKind : std::uint8_t {
  kDeliver,     // hand `packet` to the agent at `at`
  kForwardHop,  // a unicast packet finished traversing one routed link
  kFloodStep,   // a tree flood crossed one link and continues from `next`
  kTimer,       // timer: protocol waits, fault firings, data sends
};

/// Packet arrival at an agent.  `direct` skips the fault triage (used by the
/// kSlowed re-delivery, which re-checks only the crash state on fire).
struct DeliverEvent {
  net::NodeId at;
  bool direct;
  Packet packet;
};

/// A unicast packet arrived at hop `hop + 1` of path-arena entry `path`
/// (SimNetwork owns the arena; the slot is released when the chain ends).
struct ForwardHopEvent {
  std::uint32_t path;
  std::uint32_t hop;
  Packet packet;
};

/// Sentinel pattern-arena id: flood draws random per-link losses.
inline constexpr std::uint32_t kNoPattern = 0xffffffffu;

/// A flooded packet crossed the tree link into `next` and keeps flooding
/// away from `came_from`.  `pattern` references SimNetwork's loss-pattern
/// arena (kNoPattern = sample Bernoulli losses).
struct FloodStepEvent {
  net::NodeId next;
  net::NodeId came_from;
  net::NodeId boundary;  // kInvalidNode = none
  std::uint32_t pattern;
  bool down_only;
  Packet packet;
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
  ForwardHopEvent forward;
  FloodStepEvent flood;
  TimerEvent timer;

  EventData() : timer{} {}
};

struct EventRecord {
  EventKind kind = EventKind::kTimer;
  EventData data;
};

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
