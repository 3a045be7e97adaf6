#include "protocols/srm_protocol.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "sim/keyed_loss.hpp"

namespace rmrn::protocols {

SrmProtocol::SrmProtocol(sim::SimNetwork& network,
                         metrics::RecoveryMetrics& metrics,
                         const ProtocolConfig& config, const SrmConfig& srm,
                         std::uint64_t seed)
    : RecoveryProtocol(network, metrics, config), srm_(srm), seed_(seed) {
  if (srm_.c1 < 0.0 || srm_.c2 <= 0.0 || srm_.d1 < 0.0 || srm_.d2 <= 0.0 ||
      srm_.hold_factor < 0.0) {
    throw std::invalid_argument("SrmProtocol: bad SRM config");
  }
  const std::size_t n = topology().graph.numNodes();
  to_source_.assign(n, 0.0);
  hold_.assign(n, 0.0);
  const auto member = [&](net::NodeId v) {
    to_source_[v] = routing().distance(v, source());
    hold_[v] = srm_.hold_factor * to_source_[v];
  };
  member(source());
  for (const net::NodeId client : topology().clients) member(client);
}

void SrmProtocol::onLossDetected(net::NodeId client, std::uint64_t seq) {
  // A duplicate detection must not reset a live want-state's timer/backoff.
  if (!want_.insert(key(client, seq))) {
    recordDuplicateSessionAttempt();
    return;
  }
  armRequestTimer(client, seq);
}

void SrmProtocol::armRequestTimer(net::NodeId client, std::uint64_t seq) {
  auto& state = want_.at(key(client, seq));
  if (state.armed) simulator().cancel(state.timer);

  const double scale =
      static_cast<double>(1u << std::min(state.backoff, srm_.max_backoff));
  const double delay = timerDelay(kTimerRequest, client, seq, state.arms++,
                                  srm_.c1, srm_.c2, scale * to_source_[client]);

  state.timer = scheduleTimerAfter(delay, kTimerRequest, client, seq);
  state.armed = true;
}

double SrmProtocol::timerDelay(std::uint32_t kind, net::NodeId at,
                               std::uint64_t seq, std::uint32_t arm, double lo,
                               double width, double unit) const {
  const std::uint64_t draw =
      sim::chaosDraw(sim::sendHash(seed_, key(at, seq)), kind, arm);
  return std::max(config().min_timeout_ms,
                  (lo + sim::jitterOf(draw, width)) * unit);
}

void SrmProtocol::onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  switch (kind) {
    case kTimerRequest:
      fireRequestTimer(static_cast<net::NodeId>(a), b);
      return;
    case kTimerRepair:
      fireRepairTimer(static_cast<net::NodeId>(a), b);
      return;
    default:
      RecoveryProtocol::onTimer(kind, a, b, c);  // throws
  }
}

void SrmProtocol::fireRequestTimer(net::NodeId client, std::uint64_t seq) {
  WantState* want = want_.find(key(client, seq));
  if (want == nullptr) return;  // recovered meanwhile
  want->armed = false;
  ++requests_multicast_;
  // Re-multicasts (backoff already raised) count as retries; SRM's
  // requests are group-wide, so RTT samples are attributed to the source
  // as a group-level estimate and any repair origin matches.
  const bool repeat = want->backoff > 0;
  if (repeat) recoveryMetrics().recordRetry();
  network().multicastGroup(client,
                           sim::Packet{sim::Packet::Type::kRequest, seq,
                                       client, client, nextRequestTag()});
  noteRequestSent(client, seq, source(), /*retransmit=*/repeat,
                  /*any_origin=*/true);
  recoveryMetrics().recordAttempt(client, seq);
  // Re-arm with backoff in case the request or every repair is lost.
  want->backoff = std::min(want->backoff + 1, srm_.max_backoff);
  armRequestTimer(client, seq);
}

void SrmProtocol::onRequest(net::NodeId at, const sim::Packet& packet) {
  if (at == packet.origin) return;  // own flooded request looped around
  // Chaos dedup: each flooded request attempt is processed once per member —
  // a link-duplicated copy must neither double-bump a loser's backoff nor
  // re-trigger a holder's repair timer.
  if (!shouldServeRequest(at, packet)) return;

  if (hasPacket(at, packet.seq)) {
    // Holder: schedule a repair unless one is pending or recently seen.
    if (Hold* hold = holds_.find(key(at, packet.seq)); hold != nullptr) {
      settle(at, packet.seq, *hold);
      if (simulator().now() < hold->until) return;
    }
    RepairState& repair = *repairing_.tryEmplace(key(at, packet.seq)).first;
    if (repair.armed) return;  // repair timer already runs

    const double d = routing().distance(at, packet.requester);
    const double delay = timerDelay(kTimerRepair, at, packet.seq, repair.arms++,
                                    srm_.d1, srm_.d2, d);
    repair.timer = scheduleTimerAfter(delay, kTimerRepair, at, packet.seq);
    repair.armed = true;
  } else {
    // Fellow loser: suppress own request via exponential backoff.
    WantState* want = want_.find(key(at, packet.seq));
    if (want != nullptr && want->armed) {
      want->backoff = std::min(want->backoff + 1, srm_.max_backoff);
      armRequestTimer(at, packet.seq);
    }
  }
}

void SrmProtocol::fireRepairTimer(net::NodeId at, std::uint64_t seq) {
  RepairState* repair = repairing_.find(key(at, seq));
  if (repair == nullptr || !repair->armed) return;
  Hold* hold = holds_.find(key(at, seq));
  if (hold != nullptr) settle(at, seq, *hold);  // may cancel this timer
  if (!repair->armed) return;
  repair->armed = false;
  if (hold != nullptr && simulator().now() < hold->until) return;
  ++repairs_multicast_;
  network().multicastGroup(at,
                           sim::Packet{sim::Packet::Type::kRepair, seq, at,
                                       net::kInvalidNode, /*tag=*/0});
  // The flood may have absorbed arrivals into holds_: look the hold up
  // again.
  holds_[key(at, seq)].until = simulator().now() + hold_[at];
}

void SrmProtocol::onRepair(net::NodeId at, const sim::Packet& packet) {
  // Suppress a pending repair of our own and hold further ones.
  Hold& hold = holds_[key(at, packet.seq)];
  settle(at, packet.seq, hold);
  cancelRepairTimer(key(at, packet.seq));
  hold.until = simulator().now() + hold_[at];
}

void SrmProtocol::cancelRepairTimer(std::uint64_t k) {
  RepairState* repair = repairing_.find(k);
  if (repair != nullptr && repair->armed) {
    simulator().cancel(repair->timer);
    repair->armed = false;
  }
}

void SrmProtocol::settle(net::NodeId at, std::uint64_t seq, Hold& hold) {
  if (!(hold.absorbed_at <= simulator().now())) return;
  const std::uint64_t k = key(at, seq);
  cancelRepairTimer(k);
  LaterArrivals* later = later_.find(k);
  if (applyDue(at, hold, later) && later != nullptr) later_.erase(k);
}

bool SrmProtocol::applyDue(net::NodeId at, Hold& hold,
                           LaterArrivals* later) {
  const double now = simulator().now();
  double last = hold.absorbed_at;
  hold.absorbed_at = kNoArrival;
  if (later != nullptr) {
    // Pop the due ones; the first left becomes the Hold's.
    double* const begin = std::begin(later->at);
    double* const end = std::end(later->at);
    double* due = begin;
    for (; due != end && *due <= now; ++due) last = *due;
    if (due != end) hold.absorbed_at = *due++;
    std::fill(std::copy(due, end, begin), end, kNoArrival);
  }
  hold.until = last + hold_[at];
  return later == nullptr || later->at[0] == kNoArrival;
}

bool SrmProtocol::keepPending(net::NodeId at, std::uint64_t seq, Hold& hold,
                              double arrival) {
  const std::uint64_t k = key(at, seq);
  LaterArrivals* later = nullptr;
  if (hold.absorbed_at != kNoArrival) {
    // settle(), sharing its lookup.
    later = later_.find(k);
    if (hold.absorbed_at <= simulator().now()) {
      cancelRepairTimer(k);
      applyDue(at, hold, later);
    }
  }
  if (hold.absorbed_at == kNoArrival) {  // nothing pending: no later ones
    if (later != nullptr) later_.erase(k);
    hold.absorbed_at = arrival;
    return true;
  }
  if (later == nullptr) {
    if (later_.size() >= sweep_at_) sweepLater();
    later = later_.tryEmplace(k).first;
  }
  double* const end = std::end(later->at);
  if (end[-1] != kNoArrival) return false;  // full
  // Insert in order; kNoArrival (infinity) sorts every free slot last.
  if (arrival < hold.absorbed_at) std::swap(arrival, hold.absorbed_at);
  double* const slot = std::upper_bound(std::begin(later->at), end, arrival);
  std::copy_backward(slot, end - 1, end);
  *slot = arrival;
  return true;
}

void SrmProtocol::sweepLater() {
  // Most entries outlive their arrivals: no handler at their member runs
  // for the seq again.  Applying what is due is what settle() would do
  // later, and with no repair timer armed it cancels nothing, so the sweep
  // changes nothing a later event observes.  Each entry settles its own
  // (member, seq) alone, so the walk's order does not matter.
  const double now = simulator().now();
  // rmrn-lint: allow(DET-2) entries are settled independently of each other
  later_.eraseIf([this, now](std::uint64_t k, LaterArrivals& later) {
    const RepairState* repair = repairing_.find(k);
    Hold& hold = holds_.at(k);
    if (!(hold.absorbed_at <= now) ||
        (repair != nullptr && repair->armed)) {
      return false;
    }
    return applyDue(static_cast<net::NodeId>(k >> 32), hold, &later);
  });
  sweep_at_ = std::max(kMinSweep, 2 * later_.size());
}

bool SrmProtocol::absorb(net::NodeId at, const sim::Packet& packet,
                         sim::TimeMs arrival) {
  // Only holders: a loser's arrival recovers or backs off.  Holding only
  // grows, so a holder now still holds the packet at `arrival`; and only
  // a holder has a Hold.
  const std::uint64_t k = key(at, packet.seq);
  switch (packet.type) {
    case sim::Packet::Type::kRepair: {
      Hold* hold = holds_.find(k);
      if (hold == nullptr) {
        if (!hasPacket(at, packet.seq)) return false;
        hold = holds_.tryEmplace(k).first;
      }
      if (!keepPending(at, packet.seq, *hold, arrival)) return false;
      countDuplicateDelivery();
      return true;
    }
    case sim::Packet::Type::kRequest: {
      // onRequest returns at once when the hold it will read covers the
      // arrival: settling there holds from the latest pending arrival at
      // or before it.  Holds only grow, so the one known now is a lower
      // bound.
      const Hold* hold = holds_.find(k);
      if (hold == nullptr) return false;
      if (arrival < hold->until) return true;
      if (!(hold->absorbed_at <= arrival)) return false;
      double latest = hold->absorbed_at;
      if (arrival >= latest + hold_[at]) {  // a later one may still cover it
        if (const LaterArrivals* later = later_.find(k); later != nullptr) {
          for (const double pending : later->at) {
            if (pending <= arrival) latest = pending;
          }
        }
      }
      return arrival < latest + hold_[at];
    }
    case sim::Packet::Type::kData:
    case sim::Packet::Type::kParity:
      break;
  }
  return false;
}

void SrmProtocol::onPacketObtained(net::NodeId client, std::uint64_t seq) {
  dropWant(client, seq);
}

void SrmProtocol::onSessionAbandoned(net::NodeId client, std::uint64_t seq) {
  // Only the loser role is a session; holder-side suppression state keeps
  // serving other members.
  dropWant(client, seq);
}

void SrmProtocol::dropWant(net::NodeId client, std::uint64_t seq) {
  const WantState* want = want_.find(key(client, seq));
  if (want == nullptr) return;
  if (want->armed) simulator().cancel(want->timer);
  want_.erase(key(client, seq));
}

void SrmProtocol::onClientCrashed(net::NodeId client) {
  // Silence both roles of the crashed member: its pending requests and any
  // repair it was about to multicast.
  eraseClient(want_, client, [this](WantState& want) {
    if (want.armed) simulator().cancel(want.timer);
  });
  eraseClient(repairing_, client, [this](RepairState& repair) {
    if (repair.armed) simulator().cancel(repair.timer);
  });
}

}  // namespace rmrn::protocols
