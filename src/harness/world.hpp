// One simulated recovery run, built the same way by every driver.
//
// The paper's §5.1 method runs each recovery scheme against identical loss
// draws on one topology.  RegionRun is the one builder of such a run: it
// builds one World per region of a sim::RegionMap and attaches them to one
// ParallelEngine, then runs them, sweeps and merges their counters.
// runExperiment() runs each protocol arm on a one-region map;
// runParallelTransfer() runs any region count (runTransfer() is its
// one-region case).  This file owns what those drivers used to repeat:
// the ProtocolKind -> protocol switch, planner-option resolution, the choice
// of loss process, the protocol config a fault plan implies, FaultInjector
// wiring, data-packet pacing (one timer event per packet, payload = its
// seq), the run counters (RunCounters), their merge and the per-client
// completion sweep.  Drivers keep their own RNG stream ids and derived
// metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/planner.hpp"
#include "harness/transfer.hpp"
#include "metrics/recovery_metrics.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "protocols/protocol.hpp"
#include "sim/fault_injector.hpp"
#include "sim/loss_process.hpp"
#include "sim/network.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/region_map.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rmrn::harness {

/// The recovery scheme a world runs, as views into a driver's config.
/// `protocol` is the driver's resolved config (faults, deadlines, health).
struct Scheme {
  ProtocolKind kind;
  const protocols::ProtocolConfig& protocol;
  const protocols::SrmConfig& srm;
  const protocols::ParityConfig& parity;
  const protocols::CodedConfig& coded;
  protocols::SourceRecoveryMode rp_source_mode =
      protocols::SourceRecoveryMode::kUnicast;
};

/// Watchdog default for link-chaos runs whose caller did not pick a
/// deadline: long enough to ride out transient flaps and partitions, short
/// enough that a permanently partitioned session still terminates.
inline constexpr double kChaosSessionDeadlineMs = 10000.0;

/// `config` as a run under `faults` (may be null) uses it: a non-empty plan
/// turns on peer health, and link chaos gets the watchdog default unless
/// the caller pinned a session deadline.
[[nodiscard]] protocols::ProtocolConfig resolveProtocolConfig(
    protocols::ProtocolConfig config, const sim::FaultPlan* faults);

/// The planner `kind` recovers with, or nullptr for schemes that plan
/// nothing.  RP plans against the protocol's RTT-scaled waits unless `base`
/// pins a timeout; SRC (source-direct) plans empty peer lists.  Plans are
/// immutable after build, so one planner may serve any number of worlds
/// concurrently.
[[nodiscard]] std::unique_ptr<core::RpPlanner> buildPlanner(
    ProtocolKind kind, const net::Topology& topology,
    const net::Routing& routing, const core::PlannerOptions& base,
    const protocols::ProtocolConfig& protocol);

/// One data-loss pattern per packet from the configured loss process
/// (i.i.d. Bernoulli, or Gilbert-Elliott bursts when mean_burst_packets > 1),
/// drawn in sequence order from `rng`.
[[nodiscard]] std::vector<sim::LinkLossPattern> drawLossPatterns(
    const net::Topology& topology, double loss_prob, double mean_burst_packets,
    std::uint32_t num_packets, util::Rng rng);

/// Simulator, network, metrics, protocol and optional fault injector of one
/// region of a run (the whole run when it has one region).  Only RegionRun
/// builds one.
struct World final : sim::EventSink {
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// A data-send timer fired: the source multicasts packet
  /// `record.data.timer.a`.
  void onEvent(const sim::EventRecord& record) override;

  /// This world's run counters, the one place they are read (DESIGN.md
  /// §9.4).  Reachability is judged for its shard-local clients by the link
  /// state at `end_ms`, the run's end (the latest region clock).
  [[nodiscard]] RunCounters counters(sim::TimeMs end_ms) const;

  /// `client`'s completion after the run: the loss-free arrival of the last
  /// packet or its last recovery, whichever is later, and its loss count.
  /// `holds_all` reports whether it holds every packet.
  [[nodiscard]] ClientCompletion completion(net::NodeId client,
                                            std::uint32_t num_packets,
                                            double interval_ms,
                                            bool& holds_all) const;

  sim::Simulator simulator;
  sim::SimNetwork network;
  metrics::RecoveryMetrics recovery;
  std::unique_ptr<protocols::RecoveryProtocol> protocol;
  /// Set by armFaults; its armed events point at it, so it lives as long
  /// as the world.
  std::unique_ptr<sim::FaultInjector> injector;

 private:
  friend class RegionRun;

  /// `recovery_loss` is the per-link loss of recovery traffic; `loss_seed`
  /// keys those draws and the chaos draws.
  World(const net::Topology& topology, const net::Routing& routing,
        double recovery_loss, std::uint64_t loss_seed);

  /// Constructs and attaches the scheme's protocol.  `planner` must be
  /// non-null for RP and SRC and outlive the world; `scheme_seed` keys the
  /// schemes that draw (SRM timers, coded coefficients).
  void buildProtocol(const Scheme& scheme, const core::RpPlanner* planner,
                     std::uint64_t scheme_seed);

  /// Replays `plan` on this world's network.  A crash is reported to the
  /// protocol only where the victim is simulated.
  void armFaults(const sim::FaultPlan& plan);

  /// Schedules data packet i at i * interval_ms with loss pattern i.
  /// `patterns` must outlive the run.
  void scheduleData(std::span<const sim::LinkLossPattern> patterns,
                    double interval_ms);

  std::span<const sim::LinkLossPattern> patterns_;  // set by scheduleData
};

/// One scheme's run over a region map: one World per region, attached to
/// one ParallelEngine.  A one-region map is the serial closed form: its
/// world takes no shard mode and stages no patterns, so whole-tree floods
/// replay their per-origin schedules.  Every region of a larger map runs in
/// shard mode on the identical staged loss patterns.
class RegionRun {
 public:
  /// What every world of the run shares; everything referenced must outlive
  /// the run.
  struct Inputs {
    const net::Topology& topology;
    const net::Routing& routing;
    /// Non-null for RP and SRC (see buildPlanner); one planner serves every
    /// region, since plans are immutable after build.
    const core::RpPlanner* planner;
    /// Data packet i leaves the source at i * interval_ms with patterns[i].
    std::span<const sim::LinkLossPattern> patterns;
    double interval_ms;
    Scheme scheme;
    /// Per-link loss of recovery traffic; `loss_seed` keys those draws and
    /// the chaos draws, identically in every region.
    double recovery_loss;
    std::uint64_t loss_seed;
    /// Replayed in every region when non-null and non-empty.
    const sim::FaultPlan* faults;
    /// Keys scheme draws (SRM timers, coded coefficients) in every region.
    std::uint64_t scheme_seed;
  };

  /// The merged outcome of run(): the engine's accounting, every world's
  /// counters and the recovery latencies, merged in ascending region order.
  struct Totals {
    sim::ParallelEngine::Stats engine;
    RunCounters counters;
    metrics::Accumulator latency;
  };

  /// Builds and attaches region r's world for every region of `regions`,
  /// which must outlive the run; `workers` is the engine's requested lane
  /// count.
  RegionRun(const Inputs& inputs, const sim::RegionMap& regions,
            unsigned workers);
  // Worlds hold pointers into the engine's outboxes.
  RegionRun(const RegionRun&) = delete;
  RegionRun& operator=(const RegionRun&) = delete;

  /// Runs the engine to completion, sweeps every protocol (finalizeRun) and
  /// merges.  Reachability is judged at the run's end, the latest region
  /// clock, in every region.
  Totals run();

  /// The engine, for callers that drive it themselves instead of run().
  [[nodiscard]] sim::ParallelEngine& engine() { return engine_; }
  [[nodiscard]] World& world(std::uint32_t region) { return *worlds_[region]; }
  [[nodiscard]] const World& world(std::uint32_t region) const {
    return *worlds_[region];
  }

 private:
  sim::ParallelEngine engine_;
  std::vector<std::unique_ptr<World>> worlds_;
};

}  // namespace rmrn::harness
