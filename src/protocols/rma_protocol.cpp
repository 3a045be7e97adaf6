#include "protocols/rma_protocol.hpp"

namespace rmrn::protocols {

RmaProtocol::RmaProtocol(sim::SimNetwork& network,
                         metrics::RecoveryMetrics& metrics,
                         const ProtocolConfig& config)
    // RMA repairs are subtree multicasts whose origin is the repairer, which
    // may differ from the unicast target probed; accept any origin so
    // flooded repairs still feed the estimator.
    : PeerWalkProtocol(network, metrics, config, /*any_origin=*/true) {
  // Precompute each client's nearest-upstream search order: one receiver
  // per competitive class, descending DS = nearest level first.
  for (const net::NodeId u : topology().clients) {
    order_.emplace(u, core::selectCandidates(u, topology().tree, routing(),
                                             topology().clients));
  }
}

void RmaProtocol::onRequest(net::NodeId at, const sim::Packet& packet) {
  // Chaos dedup: a duplicated request must not trigger a second subtree
  // repair multicast.
  if (!shouldServeRequest(at, packet)) return;
  if (!hasPacket(at, packet.seq)) return;  // requester's timeout moves on

  // Repair the subtree covering the requester and every receiver the search
  // visited: the subtree rooted at the first common router of repairer and
  // requester (the source repairs the requester's whole source-side branch).
  const net::NodeId client = packet.requester;
  const sim::Packet repair{sim::Packet::Type::kRepair, packet.seq, at, client,
                           /*tag=*/0};
  ++repairs_multicast_;
  if (at == source()) {
    repairSourceBranch(client, repair);
    return;
  }
  network().multicastSubtree(topology().tree.firstCommonRouter(at, client),
                             at, repair);
}

}  // namespace rmrn::protocols
