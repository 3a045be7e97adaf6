// One simulated recovery world, built the same way by every driver.
//
// The paper's §5.1 method runs each recovery scheme against identical loss
// draws on one topology.  runExperiment() builds one World per protocol arm;
// runParallelTransfer() builds one per region (runTransfer() is its
// single-region case).  This file owns what those drivers used to repeat:
// the ProtocolKind -> protocol switch, planner-option resolution, the choice
// of loss process, the protocol config a fault plan implies, FaultInjector
// wiring, data-packet pacing (one timer event per packet, payload = its
// seq), the run counters (RunCounters) and the per-client completion sweep.
// Drivers keep their own RNG substreams and derived metrics.
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
/// run (or one region of a parallel run).  Build order: construct, adjust
/// `network` (shard mode, staged patterns), buildProtocol, armFaults,
/// scheduleData, run.
struct World final : sim::EventSink {
  /// `recovery_loss` is the per-link loss of recovery traffic; `loss_seed`
  /// keys those draws and the chaos draws.
  World(const net::Topology& topology, const net::Routing& routing,
        double recovery_loss, std::uint64_t loss_seed);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Constructs and attaches the scheme's protocol.  `planner` must be
  /// non-null for RP and SRC and outlive the world; `protocol_rng` seeds the
  /// schemes that draw (SRM timers, coded coefficients).
  void buildProtocol(const Scheme& scheme, const core::RpPlanner* planner,
                     util::Rng protocol_rng);

  /// Replays `plan` on this world's network.  A crash is reported to the
  /// protocol only where the victim is simulated (always, serially).
  void armFaults(const sim::FaultPlan& plan);

  /// Schedules data packet i at i * interval_ms with loss pattern i.
  /// `patterns` must outlive the run.
  void scheduleData(std::span<const sim::LinkLossPattern> patterns,
                    double interval_ms);

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
  std::span<const sim::LinkLossPattern> patterns_;  // set by scheduleData
};

}  // namespace rmrn::harness
