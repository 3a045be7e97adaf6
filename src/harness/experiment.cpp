#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "core/auditor.hpp"
#include "harness/world.hpp"
#include "net/routing.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rmrn::harness {

namespace {

// Substream keys for the per-experiment RNG tree.
constexpr std::uint64_t kTopologyStream = 1;
constexpr std::uint64_t kDataLossStream = 2;
constexpr std::uint64_t kProtocolStreamBase = 100;

ProtocolResult runOneProtocol(const ExperimentConfig& config,
                              ProtocolKind kind, const net::Topology& topology,
                              const net::Routing& routing,
                              const core::RpPlanner& planner,
                              const std::vector<sim::LinkLossPattern>& losses,
                              const util::Rng& root_rng) {
  const double recovery_loss = config.lossy_recovery ? config.loss_prob : 0.0;
  World world(
      topology, routing, recovery_loss,
      root_rng.fork(kProtocolStreamBase + static_cast<std::uint64_t>(kind)));
  world.network.enableLinkAccounting(true);

  // Faulted runs need the adaptive health machinery or dead peers would be
  // retried with static timeouts forever; fault-free runs keep the caller's
  // (default: legacy, bit-identical) behavior.
  protocols::ProtocolConfig proto_config =
      withChaosDeadline(config.protocol, &config.faults);
  if (!config.faults.empty()) proto_config.health.enabled = true;

  // SRC plans its own empty peer lists; RP uses the run's shared planner.
  const std::unique_ptr<core::RpPlanner> source_direct =
      kind == ProtocolKind::kSourceDirect
          ? buildPlanner(kind, topology, routing, config.rp_planner,
                         proto_config)
          : nullptr;
  // Scheme draws (SRM timers, coded coefficients) get their own substream:
  // arms that never draw leave every other arm's results bit-identical.
  const std::uint64_t protocol_stream =
      kProtocolStreamBase + (kind == ProtocolKind::kSrm ? 50 : 60) +
      static_cast<std::uint64_t>(kind);
  world.buildProtocol({kind, proto_config, config.srm, config.parity,
                       config.coded, config.rp_source_mode},
                      source_direct ? source_direct.get() : &planner,
                      root_rng.fork(protocol_stream));
  if (!config.faults.empty()) world.armFaults(config.faults);
  world.scheduleData(losses, config.data_interval_ms);
  world.simulator.run();
  // Liveness sweep: with the watchdog on, every detected loss must have
  // terminated (recovered or explicitly abandoned) and no session may
  // remain open.
  world.protocol->finalizeRun();

  const sim::SimNetwork& network = world.network;
  const metrics::RecoveryMetrics& recovery = world.recovery;
  const protocols::RecoveryProtocol* protocol = world.protocol.get();
  ProtocolResult result;
  result.kind = kind;
  result.events_processed = world.simulator.eventsProcessed();
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    result.events_by_kind[k] =
        world.simulator.eventsProcessed(static_cast<sim::EventKind>(k));
  }
  result.losses = recovery.losses();
  result.recoveries = recovery.recoveries();
  result.avg_latency_ms = recovery.latency().mean();
  result.recovery_hops = network.stats().recovery_hops;
  result.data_hops = network.stats().data_hops;
  result.avg_bandwidth_hops =
      recovery.avgBandwidthHops(result.recovery_hops);
  result.latency = recovery.latency().summarize();
  result.fully_recovered = recovery.outstanding() == 0;
  result.source_requests =
      network.deliveriesAt(topology.source, sim::Packet::Type::kRequest);
  result.max_link_load = network.maxRecoveryLinkLoad();
  result.duplicate_deliveries = protocol->duplicateDeliveries();
  result.retries = recovery.retries();
  result.timeouts = recovery.timeouts();
  result.blacklist_events = recovery.blacklistEvents();
  result.failovers = recovery.failovers();
  result.source_fallbacks = recovery.sourceFallbacks();
  result.abandoned = recovery.abandoned();
  result.residual = recovery.outstanding();
  result.chaos_link_drops = network.stats().chaos_link_drops;
  result.duplicates_created = network.stats().duplicates_created;
  result.duplicate_requests_suppressed =
      protocol->duplicateRequestsSuppressed();
  result.duplicate_sessions = protocol->duplicateSessions();
  result.abandoned_sessions = recovery.abandonedSessions();
  if (const auto* parity =
          dynamic_cast<const protocols::ParityProtocol*>(protocol)) {
    result.source_repair_multicasts = parity->paritiesSent();
    result.fec_nacks_sent = parity->nacksSent();
  } else if (const auto* coded = dynamic_cast<const protocols::CodedProtocol*>(
                 protocol)) {
    result.source_repair_multicasts = coded->codedRepairsSent();
    result.fec_nacks_sent = coded->nacksSent();
  }

  // Reachability-aware accounting: a partitioned client's abandoned losses
  // are expected; a source-reachable client leaving residual is a protocol
  // bug.  Crashed clients carry no obligation and are skipped.
  if (network.chaosEnabled()) {
    std::unordered_set<net::NodeId> crashed;
    if (world.injector) {
      for (const sim::FaultEvent& event : world.injector->schedule()) {
        if (event.kind == sim::FaultKind::kCrash) crashed.insert(event.node);
      }
    }
    for (const net::NodeId client : topology.clients) {
      if (crashed.contains(client)) continue;
      if (!network.reachableFromSource(client)) {
        ++result.unreachable_clients;
        continue;
      }
      result.reachable_losses += recovery.lossesFor(client);
      result.reachable_recoveries += recovery.recoveriesFor(client);
      result.residual_reachable += recovery.outstandingFor(client);
    }
  } else {
    result.reachable_losses = result.losses;
    result.reachable_recoveries = result.recoveries;
    result.residual_reachable = result.residual;
  }

  // Failover-plan audit: every list RP adopted after blacklisting must still
  // satisfy the paper's lemmas with the dead peers excluded.
  if (config.audit_failover_plans && kind == ProtocolKind::kRp) {
    if (const auto* rp =
            dynamic_cast<const protocols::RpProtocol*>(protocol)) {
      const core::PlanAuditor auditor(topology, routing);
      const core::AuditOptions audit_options =
          core::AuditOptions::fromPlanner(planner);
      for (const net::NodeId client : topology.clients) {
        if (!rp->hasFailedOver(client)) continue;
        const std::vector<net::NodeId> excluded =
            rp->peerHealth().blacklistedTargets(client);
        const core::AuditReport report = auditor.auditStrategyExcluding(
            client, rp->activeStrategy(client), audit_options, excluded);
        result.plan_audit_violations += report.violations.size();
      }
    }
  }
  return result;
}

}  // namespace

const ProtocolResult& ExperimentResult::result(ProtocolKind kind) const {
  for (const ProtocolResult& r : protocols) {
    if (r.kind == kind) return r;
  }
  throw std::out_of_range("ExperimentResult: protocol not present");
}

ExperimentResult runExperiment(const ExperimentConfig& config,
                               std::span<const ProtocolKind> kinds) {
  if (config.num_packets == 0) {
    throw std::invalid_argument("runExperiment: need at least one packet");
  }
  using Clock = std::chrono::steady_clock;
  const auto setup_start = Clock::now();
  util::Rng root(config.seed);

  net::TopologyConfig topo_config = config.topology;
  topo_config.num_nodes = config.num_nodes;
  util::Rng topo_rng = root.fork(kTopologyStream);
  const net::Topology topology = net::generateTopology(topo_config, topo_rng);
  const net::Routing routing(topology.graph);

  // Identical data-loss draws for every protocol (DESIGN.md §6).
  const std::vector<sim::LinkLossPattern> losses = drawLossPatterns(
      topology, config.loss_prob, config.mean_burst_packets,
      config.num_packets, root.fork(kDataLossStream));
  const std::unique_ptr<core::RpPlanner> planner =
      buildPlanner(ProtocolKind::kRp, topology, routing, config.rp_planner,
                   config.protocol);

  ExperimentResult result;
  result.num_nodes = config.num_nodes;
  result.num_clients = static_cast<double>(topology.clients.size());
  result.clients_per_run.push_back(
      static_cast<std::uint32_t>(topology.clients.size()));
  result.loss_prob = config.loss_prob;
  const auto sim_start = Clock::now();
  result.setup_wall_ms =
      std::chrono::duration<double, std::milli>(sim_start - setup_start)
          .count();
  for (const ProtocolKind kind : kinds) {
    result.protocols.push_back(runOneProtocol(config, kind, topology, routing,
                                              *planner, losses, root));
  }
  result.sim_wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - sim_start)
          .count();
  return result;
}

namespace {

// Aggregates per-seed results in seed order (identical for sequential and
// parallel execution).
ExperimentResult aggregate(std::vector<ExperimentResult> results) {
  // Cross-run dispersion of the per-run means, per protocol.
  const std::size_t num_protocols = results.front().protocols.size();
  std::vector<metrics::Accumulator> latency_runs(num_protocols);
  std::vector<metrics::Accumulator> bandwidth_runs(num_protocols);
  for (const ExperimentResult& one : results) {
    for (std::size_t i = 0; i < num_protocols; ++i) {
      latency_runs[i].add(one.protocols[i].avg_latency_ms);
      bandwidth_runs[i].add(one.protocols[i].avg_bandwidth_hops);
    }
  }

  ExperimentResult total = std::move(results.front());
  for (std::size_t r = 1; r < results.size(); ++r) {
    const ExperimentResult& one = results[r];
    total.num_clients += one.num_clients;
    total.clients_per_run.insert(total.clients_per_run.end(),
                                 one.clients_per_run.begin(),
                                 one.clients_per_run.end());
    total.setup_wall_ms += one.setup_wall_ms;
    total.sim_wall_ms += one.sim_wall_ms;
    for (std::size_t i = 0; i < total.protocols.size(); ++i) {
      ProtocolResult& acc = total.protocols[i];
      const ProtocolResult& cur = one.protocols[i];
      acc.losses += cur.losses;
      acc.recoveries += cur.recoveries;
      acc.recovery_hops += cur.recovery_hops;
      acc.data_hops += cur.data_hops;
      acc.avg_latency_ms += cur.avg_latency_ms;
      acc.avg_bandwidth_hops += cur.avg_bandwidth_hops;
      acc.fully_recovered = acc.fully_recovered && cur.fully_recovered;
      acc.source_requests += cur.source_requests;
      acc.max_link_load = std::max(acc.max_link_load, cur.max_link_load);
      acc.duplicate_deliveries += cur.duplicate_deliveries;
      acc.retries += cur.retries;
      acc.timeouts += cur.timeouts;
      acc.blacklist_events += cur.blacklist_events;
      acc.failovers += cur.failovers;
      acc.source_fallbacks += cur.source_fallbacks;
      acc.abandoned += cur.abandoned;
      acc.residual += cur.residual;
      acc.chaos_link_drops += cur.chaos_link_drops;
      acc.duplicates_created += cur.duplicates_created;
      acc.duplicate_requests_suppressed += cur.duplicate_requests_suppressed;
      acc.duplicate_sessions += cur.duplicate_sessions;
      acc.abandoned_sessions += cur.abandoned_sessions;
      acc.unreachable_clients += cur.unreachable_clients;
      acc.reachable_losses += cur.reachable_losses;
      acc.reachable_recoveries += cur.reachable_recoveries;
      acc.residual_reachable += cur.residual_reachable;
      acc.plan_audit_violations += cur.plan_audit_violations;
      acc.source_repair_multicasts += cur.source_repair_multicasts;
      acc.fec_nacks_sent += cur.fec_nacks_sent;
      acc.events_processed += cur.events_processed;
      for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
        acc.events_by_kind[k] += cur.events_by_kind[k];
      }
    }
  }
  const auto n = static_cast<double>(results.size());
  total.num_clients /= n;
  for (std::size_t i = 0; i < total.protocols.size(); ++i) {
    total.protocols[i].avg_latency_ms /= n;
    total.protocols[i].avg_bandwidth_hops /= n;
    total.protocols[i].latency_run_stddev = latency_runs[i].summarize().stddev;
    total.protocols[i].bandwidth_run_stddev =
        bandwidth_runs[i].summarize().stddev;
  }
  return total;
}

}  // namespace

ExperimentResult runAveragedExperiment(const ExperimentConfig& config,
                                       std::uint32_t runs,
                                       std::span<const ProtocolKind> kinds,
                                       unsigned threads) {
  if (runs == 0) {
    throw std::invalid_argument("runAveragedExperiment: runs must be > 0");
  }
  // Per-seed experiments share nothing (every run builds its own topology,
  // RNG tree and simulator) and each writes its own slot, so the seed-order
  // aggregate is identical for any thread count.
  std::vector<ExperimentResult> results(runs);
  util::ThreadPool pool(std::min(util::resolveThreadCount(threads), runs));
  pool.parallelFor(0, runs, [&](std::size_t r) {
    ExperimentConfig run_config = config;
    run_config.seed = config.seed + r;
    results[r] = runExperiment(run_config, kinds);
  });
  return aggregate(std::move(results));
}

}  // namespace rmrn::harness
