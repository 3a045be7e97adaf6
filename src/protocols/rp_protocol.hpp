// RP — Recovery strategy with Prioritized list (the paper's scheme, §2.2).
//
// Each client u holds the optimal prioritized list L_u = {v_1, ..., v_k}
// computed by core::RpPlanner.  On loss detection u unicasts a REQUEST to
// v_1; a peer holding the packet unicasts a REPAIR back, otherwise u's
// timeout fires and it proceeds to v_2, and so on; after the list is
// exhausted u requests from the source, retrying until success (requests
// and repairs themselves traverse lossy links).
//
// Source recovery supports the two modes of §2.2: plain unicast repair, or
// the subgroup multicast of the paper's ref [4], where the source repairs
// down the whole source-side branch the request came from.
//
// Fault tolerance (DESIGN.md §9): with ProtocolConfig::health enabled,
// request timeouts adapt per peer (Jacobson/Karn), sessions skip
// blacklisted peers, each newly blacklisted peer triggers a failover replan
// (RpPlanner::replanExcluding) adopted for subsequent losses, and a bounded
// retry budget stops a session from hammering a dead path forever.  The
// walk, its timers and its teardown are PeerWalkProtocol's (peer_walk.hpp);
// RP supplies the list and the failover replan.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/planner.hpp"
#include "protocols/peer_walk.hpp"

namespace rmrn::protocols {

enum class SourceRecoveryMode {
  kUnicast,            // source unicasts the repair to the requester
  kSubgroupMulticast,  // source multicasts into the requester's branch
};

class RpProtocol : public PeerWalkProtocol {
 public:
  /// `planner` supplies each client's prioritized list and must outlive the
  /// protocol.
  RpProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
             const ProtocolConfig& config, const core::RpPlanner& planner,
             SourceRecoveryMode source_mode = SourceRecoveryMode::kUnicast);

  [[nodiscard]] SourceRecoveryMode sourceMode() const { return source_mode_; }

  /// The strategy new sessions of `client` use: the failover replan once
  /// one was adopted, the planner's original list otherwise.
  [[nodiscard]] const core::Strategy& activeStrategy(net::NodeId client) const;
  /// Whether `client` has failed over to a replanned list.
  [[nodiscard]] bool hasFailedOver(net::NodeId client) const {
    return failover_.contains(client);
  }
  /// Audits every adopted failover list against the paper's lemmas, with
  /// the client's blacklisted peers excluded.
  [[nodiscard]] std::uint64_t failoverAuditViolations() const override;

 protected:
  void onRequest(net::NodeId at, const sim::Packet& packet) override;

 private:
  [[nodiscard]] const std::vector<core::Candidate>& walkList(
      net::NodeId client) const override {
    return activeStrategy(client).peers;
  }
  /// Replans `client`'s list around its blacklisted peers and adopts the
  /// result for subsequent sessions.
  void onTargetBlacklisted(net::NodeId client) override;

  const core::RpPlanner& planner_;
  SourceRecoveryMode source_mode_;
  /// Adopted failover strategies by client (blacklist-pruned replans).
  std::unordered_map<net::NodeId, core::Strategy> failover_;
};

}  // namespace rmrn::protocols
