#include "harness/parsim.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "harness/world.hpp"
#include "net/routing.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/region_map.hpp"
#include "util/rng.hpp"

namespace rmrn::harness {
namespace {

// Substream keys under the run's root RNG, each shared by all regions.
constexpr std::uint64_t kNetworkStream = 1;
constexpr std::uint64_t kDataLossStream = 3;
constexpr std::uint64_t kSchemeStream = 4;

}  // namespace

ParsimReport runParallelTransfer(const net::Topology& topology,
                                 const TransferConfig& config,
                                 const ParsimConfig& parallel,
                                 const sim::FaultPlan* faults) {
  if (config.num_packets == 0) {
    throw std::invalid_argument(
        "runParallelTransfer: need at least one packet");
  }
  const protocols::ProtocolConfig protocol =
      resolveProtocolConfig(config.protocol_config, faults);
  const util::Rng root(config.seed);
  // Agent rows only: every query starts at the source or a client.
  const net::Routing routing(topology.graph, topology.agents());
  const sim::RegionMap regions(topology, parallel.target_regions);
  // Every region runs on the identical data-loss ground truth, drawn once in
  // sequence order.
  const std::vector<sim::LinkLossPattern> patterns = drawLossPatterns(
      topology, config.loss_prob, config.mean_burst_packets,
      config.num_packets, root.fork(kDataLossStream));
  const std::unique_ptr<core::RpPlanner> planner =
      buildPlanner(config.protocol, topology, routing, config.rp_planner,
                   protocol);

  RegionRun run(
      {.topology = topology,
       .routing = routing,
       .planner = planner.get(),
       .patterns = patterns,
       .interval_ms = config.packet_interval_ms,
       .scheme = {config.protocol, protocol, config.srm, config.parity,
                  config.coded, config.rp_source_mode},
       .recovery_loss = config.lossy_recovery ? config.loss_prob : 0.0,
       .loss_seed = sim::lossSeedOf(root.fork(kNetworkStream)),
       .faults = faults,
       .scheme_seed = root.fork(kSchemeStream).next()},
      regions, parallel.workers);
  const RegionRun::Totals totals = run.run();

  ParsimReport report;
  static_cast<sim::ParallelEngine::Stats&>(report) = totals.engine;
  TransferReport& transfer = report.transfer;
  static_cast<RunCounters&>(transfer) = totals.counters;
  std::tie(report.retries, report.timeouts, report.abandoned,
           report.abandoned_sessions, report.chaos_link_drops,
           report.duplicates_created) =
      std::tie(transfer.retries, transfer.timeouts, transfer.abandoned,
               transfer.abandoned_sessions, transfer.chaos_link_drops,
               transfer.duplicates_created);
  transfer.avg_recovery_latency_ms = totals.latency.mean();
  transfer.recovery_latency = totals.latency.summarize();
  transfer.overhead = transfer.data_hops == 0
                          ? 0.0
                          : static_cast<double>(transfer.recovery_hops) /
                                static_cast<double>(transfer.data_hops);

  // Each client's completion comes from the region that simulates it.
  transfer.complete = true;
  for (const net::NodeId c : topology.clients) {
    bool holds_all = false;
    const ClientCompletion done = run.world(regions.regionOf(c)).completion(
        c, config.num_packets, config.packet_interval_ms, holds_all);
    transfer.complete = transfer.complete && holds_all;
    transfer.duration_ms = std::max(transfer.duration_ms, done.completed_at_ms);
    transfer.completions.push_back(done);
  }
  std::sort(transfer.completions.begin(), transfer.completions.end(),
            [](const ClientCompletion& a, const ClientCompletion& b) {
              return a.client < b.client;
            });
  return report;
}

}  // namespace rmrn::harness
