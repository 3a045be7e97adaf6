// Deterministic fault injection (DESIGN.md §9).
//
// A FaultPlan names fractions of the client population to crash, stall or
// slow, plus when the faults begin.  The injector derives an explicit,
// seed-deterministic schedule at construction (victims are a seeded shuffle
// of the client list; the fault sets are disjoint) and arm() turns it into
// simulator timer events (payload: the schedule index) that flip SimNetwork
// agent fault states.  Two injectors built from the same plan over the same
// topology produce bit-identical schedules, so faulted experiments stay pure
// functions of their seed.
//
// Beyond agent faults, a plan can describe link-level chaos: link flaps
// (down/up cycles on a seeded subset of tree links), a group partition (cut
// every graph edge leaving a chosen subtree), and network-wide packet
// duplication and reorder jitter.  Link events are validated at
// construction: a link_up for a link that is not down — or a second
// link_down for one that already is — is rejected, so every schedule has one
// unambiguous link-state timeline, which arm() stages on the network before
// traffic (a crossing reads the state at the time it starts).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/types.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"

namespace rmrn::sim {

enum class FaultKind : std::uint8_t {
  kCrash,
  kStall,
  kSlow,
  kLinkDown,
  kLinkUp,
};

[[nodiscard]] constexpr std::string_view toString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kSlow:
      return "slow";
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kLinkUp:
      return "link_up";
  }
  return "?";
}

[[nodiscard]] constexpr bool isLinkFault(FaultKind kind) {
  return kind == FaultKind::kLinkDown || kind == FaultKind::kLinkUp;
}

/// One scheduled fault.  Agent kinds: `node` enters `kind` at `at_ms`.  Link
/// kinds act on the undirected link {link_a, link_b} and leave `node`
/// invalid.  New fields are appended so existing aggregate
/// initializers keep their meaning.
struct FaultEvent {
  double at_ms = 0.0;
  net::NodeId node = net::kInvalidNode;
  FaultKind kind = FaultKind::kCrash;
  double slow_extra_ms = 0.0;  // kSlow extra latency
  net::NodeId link_a = net::kInvalidNode;
  net::NodeId link_b = net::kInvalidNode;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Declarative fault workload.  Fractions apply to the client count and are
/// rounded to the nearest whole victim; the three agent sets are disjoint
/// (crash victims are picked first, then stall, then slow) and must fit
/// within the population.
struct FaultPlan {
  double crash_fraction = 0.0;
  double stall_fraction = 0.0;
  double slow_fraction = 0.0;
  /// Time of the first fault; subsequent faults follow every `stagger_ms`.
  double at_ms = 0.0;
  double stagger_ms = 0.0;
  /// Extra REQUEST latency imposed on slowed clients.
  double slow_extra_ms = 50.0;
  /// Victim-selection seed; keep it fixed across protocols so every scheme
  /// faces the identical fault workload.
  std::uint64_t seed = 1;

  // --- Link chaos (DESIGN.md §9 link-fault taxonomy).  All schedules are
  // pure functions of (plan, topology); link victims come from a substream
  // forked off the agent shuffle so adding link chaos never reshuffles who
  // crashes.
  /// Fraction of tree links (non-root members' parent links, partition cut
  /// excluded) that flap.  Flap i goes down at `at_ms + i * stagger_ms`.
  double link_flap_fraction = 0.0;
  /// How long a flapped link stays down; 0 means it never comes back.
  double flap_down_ms = 0.0;
  /// Down/up cycles per flapped link (forced to 1 when flap_down_ms == 0).
  std::uint32_t flap_cycles = 1;
  /// Spacing between cycle starts of one link; must exceed flap_down_ms when
  /// flap_cycles > 1 so a link never goes down while already down.
  double flap_period_ms = 0.0;
  /// Partition: isolate the subtree whose client share is closest to this
  /// fraction of the group by cutting, at `at_ms`, every graph edge with
  /// exactly one endpoint inside it.
  double partition_fraction = 0.0;
  /// When > 0 the partition heals (every cut link restored) this long after
  /// at_ms; 0 keeps the subtree cut for the rest of the run.
  double partition_heal_ms = 0.0;
  /// Per-traversal duplication probability applied to every link at arm().
  double duplicate_prob = 0.0;
  /// Per-traversal reorder jitter (uniform extra delay in [0, this] ms)
  /// applied to every link at arm().
  double reorder_jitter_ms = 0.0;

  [[nodiscard]] bool empty() const {
    return crash_fraction <= 0.0 && stall_fraction <= 0.0 &&
           slow_fraction <= 0.0 && !hasLinkChaos();
  }
  [[nodiscard]] bool hasLinkChaos() const {
    return link_flap_fraction > 0.0 || partition_fraction > 0.0 ||
           duplicate_prob > 0.0 || reorder_jitter_ms > 0.0;
  }
};

class FaultInjector final : private EventSink {
 public:
  /// Fires after a fault has been applied to the network (e.g. so the
  /// harness can tell the protocol a client crashed).
  using FaultHandler = std::function<void(const FaultEvent&)>;

  /// Derives the schedule from `plan` over `network.topology()`.  Throws
  /// std::invalid_argument on negative fractions/times, when the requested
  /// victims exceed the client population, or when the derived link schedule
  /// is inconsistent.  Plans with link chaos flip the network into chaos
  /// mode immediately (protocols read chaosEnabled() before the run starts).
  FaultInjector(SimNetwork& network, const FaultPlan& plan);

  /// Uses an explicit schedule verbatim (tests, replayed traces).  Link
  /// events are validated in (at_ms, schedule-order): a link_up for a link
  /// that is not down, or a link_down for one already down, throws
  /// std::invalid_argument.
  FaultInjector(SimNetwork& network, std::vector<FaultEvent> schedule);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void setFaultHandler(FaultHandler handler);

  /// Applies the plan's duplication/jitter settings, stages every link
  /// event on the network's link timeline and schedules every fault into
  /// the network's simulator.  Call exactly once, before traffic starts;
  /// throws std::logic_error on reuse.  The injector must outlive the armed
  /// events.
  void arm();

  [[nodiscard]] const std::vector<FaultEvent>& schedule() const {
    return schedule_;
  }
  [[nodiscard]] std::size_t plannedFaults(FaultKind kind) const;

 private:
  /// Schedule indices in (at_ms, schedule-order) — the simulator's
  /// insertion-order tie-break.
  [[nodiscard]] std::vector<std::size_t> timeOrder() const;
  void validateLinkSchedule() const;
  /// Applies schedule_[record.data.timer.a] (agent kinds; link kinds were
  /// staged at arm()), then reports it to the handler.
  void onEvent(const EventRecord& record) override;

  SimNetwork& network_;
  std::vector<FaultEvent> schedule_;
  FaultHandler handler_;
  double global_dup_prob_ = 0.0;
  double global_jitter_ms_ = 0.0;
  bool armed_ = false;
};

}  // namespace rmrn::sim
