#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "harness/world.hpp"
#include "net/routing.hpp"
#include "sim/region_map.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rmrn::harness {

namespace {

// Substream keys for the per-experiment RNG tree.  Each arm's recovery
// losses and scheme draws (SRM timers, coded coefficients) get their own
// substreams, so an arm never moves another arm's draws.
constexpr std::uint64_t kTopologyStream = 1;
constexpr std::uint64_t kDataLossStream = 2;
constexpr std::uint64_t kProtocolStreamBase = 100;

ProtocolResult runOneProtocol(const ExperimentConfig& config,
                              ProtocolKind kind, const net::Topology& topology,
                              const net::Routing& routing,
                              const core::RpPlanner& planner,
                              const std::vector<sim::LinkLossPattern>& losses,
                              const util::Rng& root_rng) {
  const protocols::ProtocolConfig proto_config =
      resolveProtocolConfig(config.protocol, &config.faults);
  // SRC plans its own empty peer lists; RP uses the run's shared planner.
  const std::unique_ptr<core::RpPlanner> source_direct =
      kind == ProtocolKind::kSourceDirect
          ? buildPlanner(kind, topology, routing, config.rp_planner,
                         proto_config)
          : nullptr;
  const std::uint64_t stream =
      kProtocolStreamBase + static_cast<std::uint64_t>(kind);
  const sim::RegionMap one_region(topology, 1);
  RegionRun run(
      {.topology = topology,
       .routing = routing,
       .planner = source_direct ? source_direct.get() : &planner,
       .patterns = losses,
       .interval_ms = config.data_interval_ms,
       .scheme = {kind, proto_config, config.srm, config.parity, config.coded,
                  config.rp_source_mode},
       .recovery_loss = config.lossy_recovery ? config.loss_prob : 0.0,
       .loss_seed = sim::lossSeedOf(root_rng.fork(stream)),
       .faults = &config.faults,
       .scheme_seed = root_rng.fork(stream + 60).next()},
      one_region, /*workers=*/1);
  // run() ends with the liveness sweep: with the watchdog on, every
  // detected loss must have terminated (recovered or explicitly abandoned)
  // and no session may remain open.
  const RegionRun::Totals totals = run.run();
  const World& world = run.world(0);

  ProtocolResult result;
  static_cast<RunCounters&>(result) = totals.counters;
  result.kind = kind;
  result.avg_latency_ms = totals.latency.mean();
  result.avg_bandwidth_hops =
      world.recovery.avgBandwidthHops(result.recovery_hops);
  result.latency = totals.latency.summarize();
  result.fully_recovered = result.residual == 0;
  result.max_link_load = world.network.maxRecoveryLinkLoad();
  // Failover-plan audit: every list adopted after blacklisting must still
  // satisfy the paper's lemmas with the dead peers excluded.
  if (config.audit_failover_plans) {
    result.plan_audit_violations = world.protocol->failoverAuditViolations();
  }
  return result;
}

}  // namespace

RunCounters& RunCounters::operator+=(const RunCounters& other) {
  // The merge's one field list: every scalar counter.
  static constexpr std::uint64_t RunCounters::*kSummed[] = {
      &RunCounters::losses,
      &RunCounters::recoveries,
      &RunCounters::recovery_hops,
      &RunCounters::data_hops,
      &RunCounters::source_requests,
      &RunCounters::duplicate_deliveries,
      &RunCounters::retries,
      &RunCounters::timeouts,
      &RunCounters::blacklist_events,
      &RunCounters::failovers,
      &RunCounters::source_fallbacks,
      &RunCounters::abandoned,
      &RunCounters::residual,
      &RunCounters::chaos_link_drops,
      &RunCounters::duplicates_created,
      &RunCounters::duplicate_requests_suppressed,
      &RunCounters::duplicate_sessions,
      &RunCounters::abandoned_sessions,
      &RunCounters::unreachable_clients,
      &RunCounters::reachable_losses,
      &RunCounters::reachable_recoveries,
      &RunCounters::residual_reachable,
      &RunCounters::source_repair_multicasts,
      &RunCounters::fec_nacks_sent,
      &RunCounters::recovery_digest,
      &RunCounters::absorbed_arrivals,
      &RunCounters::events_processed};
  static_assert(sizeof(RunCounters) ==
                    std::size(kSummed) * sizeof(std::uint64_t) +
                        sizeof(events_by_kind),
                "RunCounters: a counter is missing from the merge");
  for (const auto field : kSummed) this->*field += other.*field;
  for (std::size_t k = 0; k < events_by_kind.size(); ++k) {
    events_by_kind[k] += other.events_by_kind[k];
  }
  return *this;
}

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
  // Agent rows only: every query starts at the source or a client.
  const net::Routing routing(topology.graph, topology.agents());

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
      acc += cur;
      acc.avg_latency_ms += cur.avg_latency_ms;
      acc.avg_bandwidth_hops += cur.avg_bandwidth_hops;
      acc.fully_recovered = acc.fully_recovered && cur.fully_recovered;
      acc.max_link_load = std::max(acc.max_link_load, cur.max_link_load);
      acc.plan_audit_violations += cur.plan_audit_violations;
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
