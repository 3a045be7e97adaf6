#include "harness/parsim.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "harness/world.hpp"
#include "net/routing.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/region_map.hpp"
#include "util/rng.hpp"

namespace rmrn::harness {
namespace {

// Substream keys under the run's root RNG.  SRM's timer jitter comes from a
// region's own root: region 0 uses the run's root itself, so a
// single-region run draws exactly what the serial transfer harness always
// drew, and region r >= 1 roots at kRegionStreamBase + r.  Every other
// stream is the run's own, shared by all regions.
constexpr std::uint64_t kNetworkStream = 1;
constexpr std::uint64_t kSrmStream = 2;
constexpr std::uint64_t kDataLossStream = 3;
constexpr std::uint64_t kCodedStream = 4;
constexpr std::uint64_t kRegionStreamBase = 0x7000;

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
      withChaosDeadline(config.protocol_config, faults);
  const Scheme scheme{config.protocol, protocol,     config.srm,
                      config.parity,   config.coded, config.rp_source_mode};

  const util::Rng root(config.seed);
  // Agent rows only: every query starts at the source or a client.
  const net::Routing routing(topology.graph, topology.agents());
  const sim::RegionMap regions(topology, parallel.target_regions);
  const std::uint32_t num_regions = regions.numRegions();
  sim::ParallelEngine engine(regions, parallel.workers);

  // Every region stages the identical data-loss ground truth, drawn once in
  // sequence order.
  const std::vector<sim::LinkLossPattern> patterns = drawLossPatterns(
      topology, config.loss_prob, config.mean_burst_packets,
      config.num_packets, root.fork(kDataLossStream));
  // One planner serves every region: plans are immutable after build
  // (DESIGN.md §12), so concurrent regions read and replanExcluding() it
  // without synchronization.
  const std::unique_ptr<core::RpPlanner> planner =
      buildPlanner(config.protocol, topology, routing, config.rp_planner,
                   protocol);

  const double recovery_loss = config.lossy_recovery ? config.loss_prob : 0.0;
  // Recovery losses and chaos are keyed draws (sim/keyed_loss.hpp): with
  // the run's one loss seed, every region decides a (send, link) pair as the
  // serial run does.
  const std::uint64_t loss_seed = sim::lossSeedOf(root.fork(kNetworkStream));
  std::vector<std::unique_ptr<World>> worlds;
  worlds.reserve(num_regions);
  for (std::uint32_t r = 0; r < num_regions; ++r) {
    // Per-region substreams are keyed canonically by region id: the draws a
    // region makes depend only on (seed, region), never on worker count.
    const util::Rng region_root =
        r == 0 ? root : root.fork(kRegionStreamBase + r);
    World& world = *worlds.emplace_back(
        std::make_unique<World>(topology, routing, recovery_loss, loss_seed));
    world.network.enableShardMode(regions, r, &engine.outboxFor(r));
    for (const sim::LinkLossPattern& pattern : patterns) {
      world.network.stageLossPattern(pattern);
    }
    // Coded repairs: every agent must derive the same GF(256) vector for a
    // (window, index), so all regions share the run's coefficient stream.
    world.buildProtocol(scheme, planner.get(),
                        config.protocol == ProtocolKind::kSrm
                            ? region_root.fork(kSrmStream)
                            : root.fork(kCodedStream));
    // Every region replays the identical fault schedule on its own network
    // replica (schedules are a pure function of plan and topology); only
    // the victim's own region tells its protocol about a crash.
    if (faults != nullptr && !faults->empty()) world.armFaults(*faults);
    world.scheduleData(patterns, config.packet_interval_ms);
    engine.attach(r, &world.simulator, &world.network);
  }

  const sim::ParallelEngine::Stats stats = engine.run();
  for (const auto& world : worlds) world->protocol->finalizeRun();

  ParsimReport report;
  report.regions = stats.regions;
  report.lanes = stats.lanes;
  report.epochs = stats.epochs;
  report.handoffs = stats.handoffs;
  report.events = stats.events;
  report.region_runs = stats.region_runs;
  report.lookahead_ms = stats.lookahead_ms;

  // Merge in canonical region order (region 0 upward) so every aggregate is
  // worker-count independent.
  TransferReport& transfer = report.transfer;
  metrics::Accumulator latency;
  for (const auto& world : worlds) {
    const metrics::RecoveryMetrics& recovery = world->recovery;
    const sim::NetworkStats& net_stats = world->network.stats();
    transfer.losses += recovery.losses();
    transfer.recoveries += recovery.recoveries();
    latency.merge(recovery.latency());
    transfer.data_hops += net_stats.data_hops;
    transfer.recovery_hops += net_stats.recovery_hops;
    report.retries += recovery.retries();
    report.timeouts += recovery.timeouts();
    report.abandoned += recovery.abandoned();
    report.abandoned_sessions += recovery.abandonedSessions();
    report.chaos_link_drops += net_stats.chaos_link_drops;
    report.duplicates_created += net_stats.duplicates_created;
  }
  transfer.avg_recovery_latency_ms = latency.mean();
  transfer.recovery_latency = latency.summarize();
  transfer.overhead = transfer.data_hops == 0
                          ? 0.0
                          : static_cast<double>(transfer.recovery_hops) /
                                static_cast<double>(transfer.data_hops);

  // Each client's completion comes from the region that simulates it.
  transfer.complete = true;
  for (const net::NodeId c : topology.clients) {
    bool holds_all = false;
    const ClientCompletion done = worlds[regions.regionOf(c)]->completion(
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
