#include "protocols/peer_walk.hpp"

#include "util/check.hpp"

namespace rmrn::protocols {

PeerWalkProtocol::PeerWalkProtocol(sim::SimNetwork& network,
                                   metrics::RecoveryMetrics& metrics,
                                   const ProtocolConfig& config,
                                   bool any_origin)
    : RecoveryProtocol(network, metrics, config), any_origin_(any_origin) {}

void PeerWalkProtocol::onLossDetected(net::NodeId client, std::uint64_t seq) {
  // A duplicate detection must not restart a live session: overwriting it
  // would orphan the armed timer, which then fires against the fresh
  // session and double-advances the walk (double-counting requests_sent_).
  if (!sessions_.insert(sessionKey(client, seq))) {
    recordDuplicateSessionAttempt();
    return;
  }
  ++sessions_started_;
  advance(client, seq);
}

void PeerWalkProtocol::advance(net::NodeId client, std::uint64_t seq) {
  Session& session = sessions_.at(sessionKey(client, seq));
  const std::vector<core::Candidate>& peers = walkList(client);

  // Skip peers the health tracker has written off.
  while (session.next_index < peers.size() &&
         peerBlacklisted(client, peers[session.next_index].peer)) {
    ++session.next_index;
  }

  if (adaptiveTimeouts() && session.attempts >= config().health.retry_budget) {
    // Retry budget exhausted: give up rather than hammer a dead path.  With
    // the watchdog on, the loss is explicitly abandoned so the run still
    // terminates clean; legacy mode leaves it in the residual metric.
    sessions_.erase(sessionKey(client, seq));
    if (watchdogEnabled()) abandonSession(client, seq);
    return;
  }

  // Next target: the walk list, then the source (where the session index
  // stays so retries keep hitting the source until a repair lands).
  const bool at_source = session.next_index >= peers.size();
  const net::NodeId target =
      at_source ? source() : peers[session.next_index].peer;
  if (!at_source) ++session.next_index;

  const bool retransmit = at_source && session.source_attempts > 0;
  if (at_source) {
    if (session.source_attempts == 0) {
      recoveryMetrics().recordSourceFallback(client);
    }
    ++session.source_attempts;
  }
  // A retry is a re-send to the SAME target (only the source is ever
  // re-asked); advancing down the walk issues fresh requests, not retries —
  // that distinction keeps `retries` and `timeouts` decoupled.
  if (retransmit) recoveryMetrics().recordRetry();
  ++session.attempts;

  ++requests_sent_;
  network().unicast(client, target,
                    sim::Packet{sim::Packet::Type::kRequest, seq, client,
                                client, nextRequestTag()});
  noteRequestSent(client, seq, target, retransmit, any_origin_);
  recoveryMetrics().recordAttempt(client, seq);

  session.timer = scheduleTimerAfter(requestTimeout(client, target),
                                     kTimerRequest, client, seq, target);
  session.timer_armed = true;
}

void PeerWalkProtocol::onTimer(std::uint32_t kind, std::uint64_t a,
                               std::uint64_t b, std::uint64_t c) {
  if (kind != kTimerRequest) {
    RecoveryProtocol::onTimer(kind, a, b, c);  // throws
    return;
  }
  const auto client = static_cast<net::NodeId>(a);
  const std::uint64_t seq = b;
  const auto target = static_cast<net::NodeId>(c);
  Session* session = sessions_.find(sessionKey(client, seq));
  if (session == nullptr) return;  // already recovered
  session->timer_armed = false;
  if (noteRequestTimeout(client, target)) onTargetBlacklisted(client);
  advance(client, seq);
}

void PeerWalkProtocol::repairSourceBranch(net::NodeId requester,
                                          const sim::Packet& repair) {
  const auto& tree = topology().tree;
  const bool walkable = requester != source() && tree.contains(requester);
  RMRN_REQUIRE(walkable,
               "subgroup repair needs an on-tree, non-source requester");
  if (!walkable) {
    network().unicast(source(), requester, repair);
    return;
  }
  // A depth-1 requester is its own branch root (zero walk iterations).
  net::NodeId branch = requester;
  while (tree.parent(branch) != source()) branch = tree.parent(branch);
  network().multicastDownInto(branch, repair);
}

void PeerWalkProtocol::closeSession(net::NodeId client, std::uint64_t seq) {
  const Session* session = sessions_.find(sessionKey(client, seq));
  if (session == nullptr) return;
  if (session->timer_armed) simulator().cancel(session->timer);
  sessions_.erase(sessionKey(client, seq));
}

void PeerWalkProtocol::onPacketObtained(net::NodeId client,
                                        std::uint64_t seq) {
  closeSession(client, seq);
}

void PeerWalkProtocol::onSessionAbandoned(net::NodeId client,
                                          std::uint64_t seq) {
  closeSession(client, seq);
}

void PeerWalkProtocol::onClientCrashed(net::NodeId client) {
  eraseClient(sessions_, client, [this](Session& session) {
    if (session.timer_armed) simulator().cancel(session.timer);
  });
}

}  // namespace rmrn::protocols
