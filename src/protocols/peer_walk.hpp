// The per-sequence peer walk shared by RP, SRC and RMA.
//
// On loss detection a client opens one session per (client, seq) and walks a
// list of peers: it unicasts a REQUEST to the next peer and arms a timeout;
// a peer holding the packet answers with a REPAIR, otherwise the timeout
// moves the session to the next peer.  After the list the session requests
// from the source, retrying there until a repair lands.  With
// ProtocolConfig::health enabled the walk skips blacklisted peers, timeouts
// adapt per peer, and a retry budget bounds the session (DESIGN.md §9).
//
// Schemes differ only in the list they walk and in how a holder repairs:
//   * RP walks the planner's prioritized list (SRC: an empty one), re-read
//     at every step so a failover replan applies mid-session;
//   * RMA walks one receiver per competitive class, nearest level first —
//     every class, where RP walks a planned subset (paper §1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/candidates.hpp"
#include "protocols/protocol.hpp"

namespace rmrn::protocols {

class PeerWalkProtocol : public RecoveryProtocol {
 public:
  /// Recovery sessions opened (one per detected loss).
  [[nodiscard]] std::uint64_t sessionsStarted() const {
    return sessions_started_;
  }
  /// Total REQUEST packets issued (every peer visited + source retries).
  [[nodiscard]] std::uint64_t requestsSent() const { return requests_sent_; }

 protected:
  /// `any_origin`: a repair from any origin answers a request (RMA's holders
  /// multicast into a subtree, so the repair's origin may not be the peer
  /// probed); otherwise only the probed target's repair feeds the RTT
  /// estimator.
  PeerWalkProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
                   const ProtocolConfig& config, bool any_origin);

  /// The peers a session of `client` walks before the source.  Read again at
  /// every step; indexes stay safe across a swapped list because every entry
  /// is blacklist-checked before use and the walk still ends at the source.
  [[nodiscard]] virtual const std::vector<core::Candidate>& walkList(
      net::NodeId client) const = 0;
  /// A request timeout newly blacklisted one of `client`'s targets.
  virtual void onTargetBlacklisted(net::NodeId /*client*/) {}

  /// The source's subgroup repair (paper ref [4]): multicasts `repair` into
  /// the subtree under the source's child that is `requester`'s depth-1
  /// ancestor.  The root walk is defined only for an on-tree, non-source
  /// requester; with checks compiled out any other requester gets a unicast.
  void repairSourceBranch(net::NodeId requester, const sim::Packet& repair);

  // Protected (not private) so fault-injection tests can drive them
  // directly, e.g. double loss detections.
  void onLossDetected(net::NodeId client, std::uint64_t seq) override;
  void onPacketObtained(net::NodeId client, std::uint64_t seq) override;
  void onClientCrashed(net::NodeId client) override;
  void onSessionAbandoned(net::NodeId client, std::uint64_t seq) override;
  [[nodiscard]] std::size_t openSessions() const override {
    return sessions_.size();
  }
  void onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
               std::uint64_t c) override;

 private:
  /// Session request timeout: a = client, b = seq, c = target.
  static constexpr std::uint32_t kTimerRequest = kTimerSubclass;

  struct Session {
    std::size_t next_index = 0;  // into the walk list; beyond it -> source
    std::uint32_t attempts = 0;         // requests issued by this session
    std::uint32_t source_attempts = 0;  // of which addressed to the source
    sim::EventId timer = 0;
    bool timer_armed = false;
  };
  static std::uint64_t sessionKey(net::NodeId client, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(client) << 32) | seq;
  }

  /// Issues the session's next request (walk list first, then the source)
  /// and arms the timeout that advances it on silence.
  void advance(net::NodeId client, std::uint64_t seq);
  /// Cancels the session's timer and drops it; no-op when none is open.
  void closeSession(net::NodeId client, std::uint64_t seq);

  bool any_origin_;
  util::FlatTable<Session> sessions_;  // by sessionKey(client, seq)
  std::uint64_t sessions_started_ = 0;
  std::uint64_t requests_sent_ = 0;
};

}  // namespace rmrn::protocols
