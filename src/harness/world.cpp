#include "harness/world.hpp"

#include <algorithm>

#include "protocols/coded_protocol.hpp"
#include "protocols/parity_protocol.hpp"
#include "protocols/rma_protocol.hpp"
#include "protocols/rp_protocol.hpp"
#include "protocols/srm_protocol.hpp"
#include "util/check.hpp"

namespace rmrn::harness {

protocols::ProtocolConfig withChaosDeadline(protocols::ProtocolConfig config,
                                            const sim::FaultPlan* faults) {
  // Link chaos can strand a session forever (permanent partition + schemes
  // that re-request indefinitely); the watchdog guarantees bounded-time
  // termination unless the caller pinned a deadline explicitly.
  if (faults != nullptr && faults->hasLinkChaos() &&
      config.session_deadline_ms == 0.0) {
    config.session_deadline_ms = kChaosSessionDeadlineMs;
  }
  return config;
}

std::unique_ptr<core::RpPlanner> buildPlanner(
    ProtocolKind kind, const net::Topology& topology,
    const net::Routing& routing, const core::PlannerOptions& base,
    const protocols::ProtocolConfig& protocol) {
  if (kind != ProtocolKind::kRp && kind != ProtocolKind::kSourceDirect) {
    return nullptr;
  }
  core::PlannerOptions options = base;
  if (kind == ProtocolKind::kSourceDirect) {
    options.max_list_length = 0;  // empty peer lists: straight to the source
  } else if (options.timeout_ms == 0.0 &&
             options.per_peer_timeout_factor == 0.0) {
    // Unless the caller pinned a planning timeout, plan against the
    // protocol's actual RTT-scaled waits.
    options.per_peer_timeout_factor = protocol.timeout_factor;
    options.min_timeout_ms = protocol.min_timeout_ms;
  }
  return std::make_unique<core::RpPlanner>(topology, routing, options);
}

std::vector<sim::LinkLossPattern> drawLossPatterns(
    const net::Topology& topology, double loss_prob, double mean_burst_packets,
    std::uint32_t num_packets, util::Rng rng) {
  std::unique_ptr<sim::LossProcess> process;
  if (mean_burst_packets > 1.0 && loss_prob > 0.0) {
    process = std::make_unique<sim::GilbertElliottLossProcess>(
        topology.tree.numMembers(),
        sim::GilbertElliottConfig::calibrate(loss_prob, mean_burst_packets),
        rng);
  } else {
    process = std::make_unique<sim::BernoulliLossProcess>(
        topology.tree.numMembers(), loss_prob, rng);
  }
  std::vector<sim::LinkLossPattern> patterns(num_packets);
  for (sim::LinkLossPattern& pattern : patterns) {
    pattern = process->nextPattern();
  }
  return patterns;
}

World::World(const net::Topology& topology, const net::Routing& routing,
             double recovery_loss, util::Rng network_rng)
    : network(simulator, topology, routing, recovery_loss, network_rng) {}

void World::buildProtocol(const Scheme& scheme, const core::RpPlanner* planner,
                          util::Rng protocol_rng) {
  switch (scheme.kind) {
    case ProtocolKind::kRp:
    case ProtocolKind::kSourceDirect:
      RMRN_REQUIRE(planner != nullptr, "World: RP and SRC need a planner");
      protocol = std::make_unique<protocols::RpProtocol>(
          network, recovery, scheme.protocol, *planner, scheme.rp_source_mode);
      break;
    case ProtocolKind::kSrm:
      protocol = std::make_unique<protocols::SrmProtocol>(
          network, recovery, scheme.protocol, scheme.srm, protocol_rng);
      break;
    case ProtocolKind::kRma:
      protocol = std::make_unique<protocols::RmaProtocol>(network, recovery,
                                                          scheme.protocol);
      break;
    case ProtocolKind::kParityFec:
      protocol = std::make_unique<protocols::ParityProtocol>(
          network, recovery, scheme.protocol, scheme.parity);
      break;
    case ProtocolKind::kCodedRlc:
      protocol = std::make_unique<protocols::CodedProtocol>(
          network, recovery, scheme.protocol, scheme.coded, protocol_rng);
      break;
  }
  protocol->attach();
}

void World::armFaults(const sim::FaultPlan& plan) {
  injector = std::make_unique<sim::FaultInjector>(network, plan);
  injector->setFaultHandler([this](const sim::FaultEvent& event) {
    // Crash = fail-stop: the protocol abandons the victim's sessions and
    // its pending losses stop counting against reliability.
    if (event.kind == sim::FaultKind::kCrash &&
        network.isShardLocal(event.node)) {
      protocol->clientCrashed(event.node);
    }
  });
  injector->arm();
}

void World::scheduleData(std::span<const sim::LinkLossPattern> patterns,
                         double interval_ms) {
  protocols::RecoveryProtocol* proto = protocol.get();
  const sim::LinkLossPattern* losses = patterns.data();
  for (std::uint32_t seq = 0; seq < patterns.size(); ++seq) {
    simulator.scheduleAt(static_cast<double>(seq) * interval_ms,
                         [proto, losses, seq] {
                           proto->sourceMulticast(seq, losses[seq]);
                         });
  }
}

ClientCompletion World::completion(net::NodeId client,
                                   std::uint32_t num_packets,
                                   double interval_ms, bool& holds_all) const {
  holds_all = true;
  std::size_t losses = 0;
  for (std::uint32_t seq = 0; seq < num_packets; ++seq) {
    holds_all = holds_all && protocol->hasPacket(client, seq);
    if (recovery.wasLost(client, seq)) ++losses;
  }
  const double last_send = static_cast<double>(num_packets - 1) * interval_ms;
  const double arrival = last_send + network.treeArrivalDelay(client);
  return {client, std::max(arrival, recovery.lastRecoveryTime(client)),
          losses};
}

}  // namespace rmrn::harness
