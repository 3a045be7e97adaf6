// Experiment driver reproducing the paper's simulation methodology (§5.1):
// random topology, random spanning subtree as multicast tree, the three
// recovery schemes run against *identical* per-packet link-loss draws, and
// the two per-recovery metrics (latency in ms, bandwidth in hops).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/planner.hpp"
#include "metrics/stats.hpp"
#include "net/topology.hpp"
#include "protocols/coded_protocol.hpp"
#include "protocols/parity_protocol.hpp"
#include "protocols/rp_protocol.hpp"
#include "protocols/srm_protocol.hpp"
#include "sim/event.hpp"
#include "sim/fault_injector.hpp"

namespace rmrn::harness {

enum class ProtocolKind {
  kSrm,
  kRma,
  kRp,
  /// Source-based baseline: every loser requests the source directly (an
  /// RP run with an empty peer list); pairs with rp_source_mode to model
  /// the paper's ref [4] subgroup variant.
  kSourceDirect,
  /// Parity-based source recovery (the paper's related-work class [5]):
  /// block FEC with NACK-aggregated parity multicast.
  kParityFec,
  /// Sliding-window random linear coding over GF(256): NACK-aggregated
  /// coded-repair multicast with honest rank-based decoding (DESIGN.md §13).
  kCodedRlc,
};

[[nodiscard]] constexpr std::string_view toString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kSrm:
      return "SRM";
    case ProtocolKind::kRma:
      return "RMA";
    case ProtocolKind::kRp:
      return "RP";
    case ProtocolKind::kSourceDirect:
      return "SRC";
    case ProtocolKind::kParityFec:
      return "FEC";
    case ProtocolKind::kCodedRlc:
      return "CODED";
  }
  return "?";
}

inline constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kSrm, ProtocolKind::kRma, ProtocolKind::kRp};

struct ExperimentConfig {
  std::uint32_t num_nodes = 100;  // the paper's n
  double loss_prob = 0.05;        // per-link loss probability p
  std::uint32_t num_packets = 100;
  double data_interval_ms = 50.0;
  std::uint64_t seed = 1;
  /// Temporal loss correlation for the data multicast (extension; the paper
  /// draws i.i.d. losses).  Values > 1 switch the per-link draws to a
  /// Gilbert-Elliott chain calibrated so the stationary loss rate stays
  /// loss_prob and a burst lasts this many packets on average.
  double mean_burst_packets = 1.0;
  /// When true, requests/repairs also traverse Bernoulli(loss_prob) links.
  /// The paper's simulation applies loss to the data multicast only (its
  /// theory explicitly ignores request/repair loss, and the flat Fig. 7
  /// latency curves are unattainable otherwise), so reproduction runs keep
  /// this off; turn it on to stress timeout/retry robustness.
  bool lossy_recovery = false;

  /// Process faults injected mid-run (DESIGN.md §9).  The same plan (and
  /// plan seed) picks identical victims for every protocol of a run, so
  /// comparisons stay apples-to-apples.  A non-empty plan turns on
  /// protocol.health (adaptive timeouts / blacklisting), see
  /// resolveProtocolConfig() in harness/world.hpp.
  sim::FaultPlan faults;

  /// After an RP run, re-audit every adopted failover plan with
  /// core::PlanAuditor::auditStrategyExcluding (blacklisted peers excluded);
  /// violation counts land in ProtocolResult::plan_audit_violations.
  bool audit_failover_plans = false;

  net::TopologyConfig topology;  // num_nodes is overwritten from above
  protocols::ProtocolConfig protocol;
  protocols::SrmConfig srm;
  protocols::ParityConfig parity;
  protocols::CodedConfig coded;
  core::PlannerOptions rp_planner;  // timeout_ms 0 -> auto (see RpPlanner)
  protocols::SourceRecoveryMode rp_source_mode =
      protocols::SourceRecoveryMode::kUnicast;
};

/// Every summed counter of a run, declared once (DESIGN.md §9.4): read by
/// World::counters(), merged over repetitions and regions by operator+=.
struct RunCounters {
  std::uint64_t losses = 0;  // (client, packet) losses
  std::uint64_t recoveries = 0;
  std::uint64_t recovery_hops = 0;
  std::uint64_t data_hops = 0;
  /// Recovery REQUESTs delivered at the source (§2.2's congestion concern).
  std::uint64_t source_requests = 0;
  /// Repairs delivered to receivers that already held the packet.
  std::uint64_t duplicate_deliveries = 0;
  /// Resilience counters (all zero in fault-free legacy runs).
  std::uint64_t retries = 0;           // repeat REQUESTs beyond the first
  std::uint64_t timeouts = 0;          // per-target request timeouts fired
  std::uint64_t blacklist_events = 0;  // peers written off after k timeouts
  std::uint64_t failovers = 0;         // replanExcluding adoptions (RP)
  std::uint64_t source_fallbacks = 0;  // sessions that fell back to the source
  std::uint64_t abandoned = 0;         // losses written off (see below)
  std::uint64_t residual = 0;          // surviving-client losses unrecovered
  /// Chaos counters (all zero when the run had no link chaos).
  std::uint64_t chaos_link_drops = 0;   // packets eaten by down links
  std::uint64_t duplicates_created = 0; // extra copies injected by links
  /// Network-duplicated requests the responder-side dedup absorbed (§8 I9).
  std::uint64_t duplicate_requests_suppressed = 0;
  /// Duplicate loss detections that would have opened a second session.
  std::uint64_t duplicate_sessions = 0;
  /// Losses given up one at a time (watchdog / retry-budget exhaustion);
  /// subset of `abandoned`, which also counts whole-client crash write-offs.
  std::uint64_t abandoned_sessions = 0;
  /// Reachability-aware accounting (chaos runs only; in chaos-free runs
  /// every client is reachable, so reachable_* mirror the global counters).
  /// A client is source-reachable when, in the link state at the run's end,
  /// both its static unicast route from the source and its multicast-tree
  /// root path are fully up.  Crashed clients count in none of these.
  std::uint64_t unreachable_clients = 0;
  std::uint64_t reachable_losses = 0;
  std::uint64_t reachable_recoveries = 0;
  /// Unrecovered, unabandoned losses of reachable clients — the invariant a
  /// chaos run must drive to zero.
  std::uint64_t residual_reachable = 0;
  /// Source-side repair multicasts (FEC parity waves / coded-repair waves;
  /// zero for the per-sequence protocols, whose source load shows up in
  /// source_requests instead).
  std::uint64_t source_repair_multicasts = 0;
  /// Aggregated window/block NACKs the FEC-style clients unicast to the
  /// source (distinct from source_requests, which counts per-sequence
  /// REQUESTs delivered there).
  std::uint64_t fec_nacks_sent = 0;
  /// Order-free digest of every terminal (client, seq) record
  /// (metrics::RecoveryMetrics::digest()); sums merge like the counts.
  std::uint64_t recovery_digest = 0;
  /// Flood arrivals the protocol absorbed ahead of the clock
  /// (sim::DeliverySink::absorb): delivered, but fired as no event.
  std::uint64_t absorbed_arrivals = 0;
  /// Simulator events fired; drivers report events/sec from it.
  std::uint64_t events_processed = 0;
  /// events_processed split by sim::EventKind (indexed by its value).
  std::array<std::uint64_t, sim::kNumEventKinds> events_by_kind{};

  RunCounters& operator+=(const RunCounters& other);
  bool operator==(const RunCounters&) const = default;
};

/// One protocol arm of an experiment: its counters and per-recovery metrics.
struct ProtocolResult : RunCounters {
  ProtocolKind kind = ProtocolKind::kRp;
  double avg_latency_ms = 0.0;        // Figs. 5 / 7
  double avg_bandwidth_hops = 0.0;    // Figs. 6 / 8
  metrics::Summary latency;
  bool fully_recovered = false;
  /// Dispersion of the per-run means across an averaged experiment's
  /// repetitions (0 for single runs): sample standard deviations.
  double latency_run_stddev = 0.0;
  double bandwidth_run_stddev = 0.0;
  /// Heaviest per-link recovery traversal count (the maximum across
  /// repetitions).
  std::uint64_t max_link_load = 0;
  /// Failover-plan audit violations (RP with audit_failover_plans).
  std::uint64_t plan_audit_violations = 0;
};

struct ExperimentResult {
  std::uint32_t num_nodes = 0;
  double num_clients = 0.0;  // fractional when averaged over seeds
  /// Exact per-repetition client counts in seed order (one entry per run);
  /// num_clients is their mean.  Reported as integers in the resilience and
  /// chaos JSON so per-run population is never obscured by averaging.
  std::vector<std::uint32_t> clients_per_run;
  double loss_prob = 0.0;
  std::vector<ProtocolResult> protocols;

  /// Wall-clock split, accumulated across repetitions: setup covers
  /// topology generation, routing table and planner construction plus the
  /// shared loss draws; sim covers only the event-loop execution (protocol
  /// construction through finalizeRun).  Drivers must report events/sec
  /// against sim_wall_ms — setup cost would otherwise dilute the engine
  /// rate.  In parallel averaged runs these are sums of per-repetition
  /// walls (aggregate engine time), not elapsed time.
  double setup_wall_ms = 0.0;
  double sim_wall_ms = 0.0;

  [[nodiscard]] const ProtocolResult& result(ProtocolKind kind) const;
};

/// Runs one topology draw (deterministic in config.seed) with every protocol
/// in `kinds` recovering the same losses.
[[nodiscard]] ExperimentResult runExperiment(
    const ExperimentConfig& config,
    std::span<const ProtocolKind> kinds = kAllProtocols);

/// Averages `runs` independent repetitions (seeds config.seed .. +runs-1):
/// per-protocol metrics are averaged, loss/recovery counts summed.  The
/// repetitions fan out over a util::ThreadPool of `threads` lanes (0 =
/// hardware concurrency; clamped to the hardware and to `runs`).  Runs are
/// deterministic per seed and aggregated in seed order, so the result is
/// bit-identical for every thread count.
[[nodiscard]] ExperimentResult runAveragedExperiment(
    const ExperimentConfig& config, std::uint32_t runs,
    std::span<const ProtocolKind> kinds = kAllProtocols,
    unsigned threads = 0);

}  // namespace rmrn::harness
