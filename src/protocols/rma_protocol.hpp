// RMA — Reliable Multicast Architecture (Levine & Garcia-Luna-Aceves,
// ICNP 1997), reconstructed as the paper describes it (§1):
//
//   "each receiver that lost some packet attempts to achieve the shortest
//    delay from the nearest upstream receiver that has received the packet.
//    Once the request approaches an upstream receiver that has the packet,
//    this receiver will multicast the repair to the subtree that contains
//    all the receivers that have been requested. ... This scheme is not
//    efficient in that one-by-one searching is just best-effort, not
//    strategic."
//
// The nearest-upstream search order is one receiver per competitive class
// of u in descending DS (geographically nearest level first) — exactly RP's
// candidates, walked one by one with a timeout per step instead of through
// a strategic subset.  RMA is literally RP's peer walk (PeerWalkProtocol)
// over every class, with the source as the final fallback (retried until
// success).  A receiver holding the packet multicasts the repair into the
// subtree rooted at its first common router with the requester, which
// covers every receiver visited so far (under tree-correlated loss they all
// lost the packet).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/candidates.hpp"
#include "protocols/peer_walk.hpp"

namespace rmrn::protocols {

class RmaProtocol final : public PeerWalkProtocol {
 public:
  RmaProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
              const ProtocolConfig& config);

  /// Upstream search order for a client (nearest level first); throws
  /// std::out_of_range for a non-client.
  [[nodiscard]] const std::vector<core::Candidate>& searchOrder(
      net::NodeId client) const {
    return order_.at(client);
  }

  /// Subtree repair multicasts issued.
  [[nodiscard]] std::uint64_t repairsMulticast() const {
    return repairs_multicast_;
  }

 private:
  [[nodiscard]] const std::vector<core::Candidate>& walkList(
      net::NodeId client) const override {
    return searchOrder(client);
  }
  void onRequest(net::NodeId at, const sim::Packet& packet) override;

  std::unordered_map<net::NodeId, std::vector<core::Candidate>> order_;
  std::uint64_t repairs_multicast_ = 0;
};

}  // namespace rmrn::protocols
