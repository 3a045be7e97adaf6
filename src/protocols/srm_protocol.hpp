// SRM — Scalable Reliable Multicast (Floyd et al., TON 1997), reconstructed
// as the paper describes it (§1):
//
//   * A receiver that lost packet P sets a request-suppression timer drawn
//     uniformly from [C1 d, (C1+C2) d] with d its one-way delay to the
//     source; if the timer expires before it hears anyone else's request
//     for P it MULTICASTS the request to the whole group.  Hearing another
//     request while the timer runs triggers exponential backoff.
//   * A member holding P that hears a request sets a repair-suppression
//     timer uniform in [D1 d', (D1+D2) d'] with d' its one-way delay to the
//     requester; if no repair is heard first it MULTICASTS the repair.
//   * After sending a request, a receiver re-arms a backed-off request timer
//     in case no repair ever arrives (requests/repairs can be lost).
//
// The whole-group multicasts are what give SRM its large bandwidth and the
// suppression timers its large latency in Figs. 5-8.
//
// Most flood arrivals change nothing but a hold time, so the scheme absorbs
// two kinds ahead of the clock (sim::DeliverySink::absorb, DESIGN.md
// §10.2), and every other arrival fires as an event:
//   * a repair reaching a member that holds the packet — holding only
//     grows, so it still holds it then.  The arrival is kept as a pending
//     hold, in an ascending list of up to kPendingArrivals per (member,
//     seq); one that finds the list full fires.
//   * a request reaching a holder whose known hold, the latest pending
//     arrival at or before it included, runs past the arrival: onRequest
//     would return at once.
// onRequest, onRepair and fireRepairTimer first settle the pending
// arrivals that are due: they cancel the repair timer once (armed before
// the first of them, since arming settles first) and hold from the last,
// which is what the fired arrivals would have done in order.  The Hold
// keeps the earliest pending arrival and a side table the others, swept
// of due entries before it grows.  Absorption is off with adaptive
// timeouts (a repair feeds the RTT estimator), and the network never
// offers an arrival under link chaos or agent faults.
//
// Each timer's draw is keyed like the network's loss and chaos draws
// (sim/keyed_loss.hpp): a pure function of the run's seed, the member, the
// seq, the member's arm count for that timer and its kind.  No draw depends
// on event order, so every region of a parallel run draws as serially.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "protocols/protocol.hpp"
#include "util/flat_table.hpp"

namespace rmrn::protocols {

struct SrmConfig {
  double c1 = 2.0;  // request timer window [C1 d, (C1+C2) d]
  double c2 = 2.0;
  double d1 = 1.0;  // repair timer window [D1 d', (D1+D2) d']
  double d2 = 1.0;
  /// After sending or hearing a repair for a sequence, a member ignores
  /// further requests for it for hold_factor * (one-way delay to source).
  double hold_factor = 3.0;
  /// Cap on the exponential backoff exponent.
  std::uint32_t max_backoff = 10;
};

class SrmProtocol final : public RecoveryProtocol {
 public:
  SrmProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
              const ProtocolConfig& config, const SrmConfig& srm,
              std::uint64_t seed);

  [[nodiscard]] std::uint64_t requestsMulticast() const {
    return requests_multicast_;
  }
  [[nodiscard]] std::uint64_t repairsMulticast() const {
    return repairs_multicast_;
  }

 private:
  void onLossDetected(net::NodeId client, std::uint64_t seq) override;
  void onRequest(net::NodeId at, const sim::Packet& packet) override;
  void onRepair(net::NodeId at, const sim::Packet& packet) override;
  void onPacketObtained(net::NodeId client, std::uint64_t seq) override;
  void onClientCrashed(net::NodeId client) override;
  void onSessionAbandoned(net::NodeId client, std::uint64_t seq) override;
  [[nodiscard]] std::size_t openSessions() const override {
    return want_.size();
  }
  [[nodiscard]] bool absorbsArrivals() const override {
    return !adaptiveTimeouts();
  }
  bool absorb(net::NodeId at, const sim::Packet& packet,
              sim::TimeMs arrival) override;
  void onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
               std::uint64_t c) override;

  /// Request-suppression timer expired: a = client, b = seq.
  static constexpr std::uint32_t kTimerRequest = kTimerSubclass;
  /// Repair-suppression timer expired: a = holder, b = seq.
  static constexpr std::uint32_t kTimerRepair = kTimerSubclass + 1;

  void fireRequestTimer(net::NodeId client, std::uint64_t seq);
  void fireRepairTimer(net::NodeId at, std::uint64_t seq);

  /// Arms (or re-arms) u's request timer for `seq` at the current backoff.
  void armRequestTimer(net::NodeId client, std::uint64_t seq);
  /// Cancels `client`'s request timer for `seq` and drops its want-state;
  /// no-op when it has none.
  void dropWant(net::NodeId client, std::uint64_t seq);

  static std::uint64_t key(net::NodeId node, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(node) << 32) | seq;
  }

  struct WantState {
    sim::EventId timer = 0;
    bool armed = false;
    std::uint32_t backoff = 0;
    std::uint32_t arms = 0;  // timers armed so far: keys the next draw
  };
  struct RepairState {
    sim::EventId timer = 0;
    bool armed = false;
    std::uint32_t arms = 0;  // as WantState::arms
  };
  static constexpr double kNoArrival = std::numeric_limits<double>::infinity();
  /// Absorbed repair arrivals a holder keeps pending at once.
  static constexpr std::size_t kPendingArrivals = 3;
  /// A holder's repair hold: requests before `until` are ignored.  Absorbed
  /// repair arrivals not yet settled raise it; `absorbed_at` is the
  /// earliest, and later_ keeps the rest.
  struct Hold {
    double until = -std::numeric_limits<double>::infinity();
    double absorbed_at = kNoArrival;
  };
  /// The pending arrivals after a Hold's `absorbed_at`, ascending, free
  /// slots (kNoArrival) last.  Kept apart so that every Hold stays small.
  struct LaterArrivals {
    double at[kPendingArrivals - 1] = {kNoArrival, kNoArrival};
  };
  static_assert(kPendingArrivals == 3, "LaterArrivals lists each free slot");
  static_assert(sizeof(Hold) == 16, "holds_ has an entry per (holder, seq)");

  /// Applies `hold`'s absorbed repair arrivals that are due by now, as
  /// onRepair would have when each arrived: cancels `at`'s repair timer for
  /// `seq` and holds from the last of them.  A timer armed now was armed
  /// before them: arming settles first, so it never sees a due one.
  void settle(net::NodeId at, std::uint64_t seq, Hold& hold);
  /// settle() after the cancel, for `at`'s `hold` whose first pending
  /// arrival is due and whose later ones are `later` (or none): pops the
  /// due ones and holds from the last.  Returns whether `later` is empty.
  bool applyDue(net::NodeId at, Hold& hold, LaterArrivals* later);
  /// Cancels the repair timer of key `k` if one is armed.
  void cancelRepairTimer(std::uint64_t k);
  /// Settles `hold` (of `at` for `seq`) and keeps `arrival` as one more
  /// pending repair arrival; false when kPendingArrivals are pending
  /// already.
  bool keepPending(net::NodeId at, std::uint64_t seq, Hold& hold,
                   double arrival);
  /// Settles every later_ entry that is due and has no repair timer armed,
  /// dropping the emptied ones, and sets the size of the next sweep.
  void sweepLater();

  /// `at`'s arm-th `kind` timer for `seq`: `unit` times a keyed draw
  /// uniform in [lo, lo + width), and at least min_timeout_ms.
  [[nodiscard]] double timerDelay(std::uint32_t kind, net::NodeId at,
                                  std::uint64_t seq, std::uint32_t arm,
                                  double lo, double width, double unit) const;

  SrmConfig srm_;
  std::uint64_t seed_;
  // By NodeId, for every agent: its one-way delay to the source, and the
  // hold a repair it sends or hears starts (hold_factor times that delay).
  std::vector<double> to_source_;
  std::vector<double> hold_;
  // By key(node, seq).
  util::FlatTable<WantState> want_;         // loser state
  util::FlatTable<RepairState> repairing_;  // holder state
  util::FlatTable<Hold> holds_;             // holder state
  util::FlatTable<LaterArrivals> later_;    // holds with 2+ pending
  // later_'s size that triggers its next sweep (keepPending).
  static constexpr std::size_t kMinSweep = 256;
  std::size_t sweep_at_ = kMinSweep;
  std::uint64_t requests_multicast_ = 0;
  std::uint64_t repairs_multicast_ = 0;
};

}  // namespace rmrn::protocols
