#include "protocols/rp_protocol.hpp"

#include "core/auditor.hpp"

namespace rmrn::protocols {

RpProtocol::RpProtocol(sim::SimNetwork& network,
                       metrics::RecoveryMetrics& metrics,
                       const ProtocolConfig& config,
                       const core::RpPlanner& planner,
                       SourceRecoveryMode source_mode)
    : PeerWalkProtocol(network, metrics, config, /*any_origin=*/false),
      planner_(planner),
      source_mode_(source_mode) {}

const core::Strategy& RpProtocol::activeStrategy(net::NodeId client) const {
  const auto it = failover_.find(client);
  return it != failover_.end() ? it->second : planner_.strategyFor(client);
}

void RpProtocol::onTargetBlacklisted(net::NodeId client) {
  failover_[client] =
      planner_.replanExcluding(client, peerHealth().blacklistedTargets(client));
  recoveryMetrics().recordFailover(client);
}

std::uint64_t RpProtocol::failoverAuditViolations() const {
  if (failover_.empty()) return 0;
  const core::PlanAuditor auditor(topology(), routing());
  const core::AuditOptions options = core::AuditOptions::fromPlanner(planner_);
  std::uint64_t violations = 0;
  for (const net::NodeId client : topology().clients) {
    if (!hasFailedOver(client)) continue;
    violations += auditor
                      .auditStrategyExcluding(
                          client, activeStrategy(client), options,
                          peerHealth().blacklistedTargets(client))
                      .violations.size();
  }
  return violations;
}

void RpProtocol::onRequest(net::NodeId at, const sim::Packet& packet) {
  // Chaos dedup: a network-duplicated request must not spawn a second
  // repair (and in subgroup mode, a second branch multicast).
  if (!shouldServeRequest(at, packet)) return;
  if (!hasPacket(at, packet.seq)) return;  // requester's timeout handles it
  const sim::Packet repair{sim::Packet::Type::kRepair, packet.seq, at,
                           packet.requester, /*tag=*/0};
  if (at == source() &&
      source_mode_ == SourceRecoveryMode::kSubgroupMulticast) {
    repairSourceBranch(packet.requester, repair);
    return;
  }
  network().unicast(at, packet.requester, repair);
}

}  // namespace rmrn::protocols
