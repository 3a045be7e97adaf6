#include "harness/world.hpp"

#include <algorithm>

#include "protocols/coded_protocol.hpp"
#include "protocols/parity_protocol.hpp"
#include "protocols/rma_protocol.hpp"
#include "protocols/rp_protocol.hpp"
#include "protocols/srm_protocol.hpp"
#include "util/check.hpp"

namespace rmrn::harness {

protocols::ProtocolConfig resolveProtocolConfig(
    protocols::ProtocolConfig config, const sim::FaultPlan* faults) {
  if (faults == nullptr || faults->empty()) return config;
  config.health.enabled = true;
  // Link chaos can strand a session forever (permanent partition + schemes
  // that re-request indefinitely); the watchdog bounds its time.
  if (faults->hasLinkChaos() && config.session_deadline_ms == 0.0) {
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
             double recovery_loss, std::uint64_t loss_seed)
    : network(simulator, topology, routing, recovery_loss, loss_seed) {}

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
  patterns_ = patterns;
  sim::EventRecord record{sim::EventKind::kTimer, {}};
  for (std::uint32_t seq = 0; seq < patterns.size(); ++seq) {
    record.data.timer = sim::TimerEvent{0, seq, 0, 0};
    simulator.scheduleEventAt(static_cast<double>(seq) * interval_ms, this,
                              record);
  }
}

void World::onEvent(const sim::EventRecord& record) {
  const std::uint64_t seq = record.data.timer.a;
  protocol->sourceMulticast(seq, patterns_[seq]);
}

RunCounters World::counters(sim::TimeMs end_ms) const {
  const sim::NetworkStats& stats = network.stats();
  RunCounters c{
      .losses = recovery.losses(),
      .recoveries = recovery.recoveries(),
      .recovery_hops = stats.recovery_hops,
      .data_hops = stats.data_hops,
      .source_requests = network.deliveriesAt(network.topology().source,
                                              sim::Packet::Type::kRequest),
      .duplicate_deliveries = protocol->duplicateDeliveries(),
      .retries = recovery.retries(),
      .timeouts = recovery.timeouts(),
      .blacklist_events = recovery.blacklistEvents(),
      .failovers = recovery.failovers(),
      .source_fallbacks = recovery.sourceFallbacks(),
      .abandoned = recovery.abandoned(),
      .residual = recovery.outstanding(),
      .chaos_link_drops = stats.chaos_link_drops,
      .duplicates_created = stats.duplicates_created,
      .duplicate_requests_suppressed = protocol->duplicateRequestsSuppressed(),
      .duplicate_sessions = protocol->duplicateSessions(),
      .abandoned_sessions = recovery.abandonedSessions(),
      .source_repair_multicasts = protocol->sourceRepairMulticasts(),
      .fec_nacks_sent = protocol->nacksSent(),
      .events_processed = simulator.eventsProcessed(),
  };
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    c.events_by_kind[k] =
        simulator.eventsProcessed(static_cast<sim::EventKind>(k));
  }

  // Reachability-aware accounting: a partitioned client's abandoned losses
  // are expected; a source-reachable client leaving residual is a protocol
  // bug.  Crashed clients carry no obligation and are skipped (every region
  // replays every crash on its own network).
  if (!network.chaosEnabled()) {
    c.reachable_losses = c.losses;
    c.reachable_recoveries = c.recoveries;
    c.residual_reachable = c.residual;
    return c;
  }
  for (const net::NodeId client : network.topology().clients) {
    if (!network.isShardLocal(client) || network.isAgentFailed(client)) {
      continue;
    }
    if (!network.reachableFromSource(client, end_ms)) {
      ++c.unreachable_clients;
      continue;
    }
    c.reachable_losses += recovery.lossesFor(client);
    c.reachable_recoveries += recovery.recoveriesFor(client);
    c.residual_reachable += recovery.outstandingFor(client);
  }
  return c;
}

ClientCompletion World::completion(net::NodeId client,
                                   std::uint32_t num_packets,
                                   double interval_ms, bool& holds_all) const {
  holds_all = true;
  for (std::uint32_t seq = 0; seq < num_packets; ++seq) {
    holds_all = holds_all && protocol->hasPacket(client, seq);
  }
  const double last_send = static_cast<double>(num_packets - 1) * interval_ms;
  const double arrival = last_send + network.treeArrivalDelay(client);
  return {client, std::max(arrival, recovery.lastRecoveryTime(client)),
          recovery.lossesFor(client)};
}

}  // namespace rmrn::harness
