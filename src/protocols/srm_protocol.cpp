#include "protocols/srm_protocol.hpp"

#include <algorithm>
#include <stdexcept>

namespace rmrn::protocols {

SrmProtocol::SrmProtocol(sim::SimNetwork& network,
                         metrics::RecoveryMetrics& metrics,
                         const ProtocolConfig& config,
                         const SrmConfig& srm_config, util::Rng rng)
    : RecoveryProtocol(network, metrics, config), srm_(srm_config), rng_(rng) {
  if (srm_.c1 < 0.0 || srm_.c2 <= 0.0 || srm_.d1 < 0.0 || srm_.d2 <= 0.0 ||
      srm_.hold_factor < 0.0) {
    throw std::invalid_argument("SrmProtocol: bad SRM config");
  }
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

  const double d = routing().distance(client, source());
  const double scale =
      static_cast<double>(1u << std::min(state.backoff, srm_.max_backoff));
  const double delay =
      std::max(config().min_timeout_ms,
               scale * rng_.uniformReal(srm_.c1, srm_.c1 + srm_.c2) * d);

  state.timer = scheduleTimerAfter(delay, kTimerRequest, client, seq);
  state.armed = true;
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
    const double* hold = hold_until_.find(key(at, packet.seq));
    if (hold != nullptr && simulator().now() < *hold) return;
    RepairState& repair = *repairing_.tryEmplace(key(at, packet.seq)).first;
    if (repair.armed) return;  // repair timer already runs

    const double d = routing().distance(at, packet.requester);
    const double delay =
        std::max(config().min_timeout_ms,
                 rng_.uniformReal(srm_.d1, srm_.d1 + srm_.d2) * d);
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
  repair->armed = false;
  const double* hold = hold_until_.find(key(at, seq));
  if (hold != nullptr && simulator().now() < *hold) return;
  ++repairs_multicast_;
  network().multicastGroup(at,
                           sim::Packet{sim::Packet::Type::kRepair, seq, at,
                                       net::kInvalidNode, /*tag=*/0});
  hold_until_[key(at, seq)] =
      simulator().now() + srm_.hold_factor * routing().distance(at, source());
}

void SrmProtocol::onRepair(net::NodeId at, const sim::Packet& packet) {
  // Suppress a pending repair of our own and hold further ones.
  RepairState* repair = repairing_.find(key(at, packet.seq));
  if (repair != nullptr && repair->armed) {
    simulator().cancel(repair->timer);
    repair->armed = false;
  }
  hold_until_[key(at, packet.seq)] =
      simulator().now() + srm_.hold_factor * routing().distance(at, source());
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
