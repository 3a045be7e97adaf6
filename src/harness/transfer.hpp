// Reliable-transfer façade — the paper's motivating application ("distributing
// a large file to a number of clients ... such applications need full
// reliability", §2) as a one-call API.
//
// Given a topology and a protocol choice, runTransfer() streams a packet
// sequence from the source, runs the chosen recovery scheme to full
// reliability, and reports completion times per client plus the usual
// latency/bandwidth aggregates.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/experiment.hpp"
#include "net/topology.hpp"

namespace rmrn::harness {

struct TransferConfig {
  ProtocolKind protocol = ProtocolKind::kRp;
  std::uint32_t num_packets = 100;
  double packet_interval_ms = 5.0;
  /// Per-link loss probability for the data multicast.
  double loss_prob = 0.05;
  /// Gilbert-Elliott mean burst length (1 = i.i.d.), see ExperimentConfig.
  double mean_burst_packets = 1.0;
  /// Apply loss_prob to recovery traffic too.
  bool lossy_recovery = false;
  std::uint64_t seed = 1;

  protocols::ProtocolConfig protocol_config;
  protocols::SrmConfig srm;
  protocols::ParityConfig parity;
  protocols::CodedConfig coded;
  core::PlannerOptions rp_planner;
  protocols::SourceRecoveryMode rp_source_mode =
      protocols::SourceRecoveryMode::kUnicast;
};

struct ClientCompletion {
  net::NodeId client = net::kInvalidNode;
  /// Simulated time at which the client held every packet of the transfer.
  double completed_at_ms = 0.0;
  std::size_t losses = 0;

  bool operator==(const ClientCompletion&) const = default;
};

/// A transfer's counters (summed over regions) and its completion.
struct TransferReport : RunCounters {
  bool complete = false;       // every client holds every packet
  double duration_ms = 0.0;    // time of the last completion
  double avg_recovery_latency_ms = 0.0;
  metrics::Summary recovery_latency;
  /// Recovery traffic as a fraction of data traffic (hop count ratio).
  double overhead = 0.0;
  std::vector<ClientCompletion> completions;  // sorted by client id

  bool operator==(const TransferReport&) const = default;
};

/// Runs one transfer over `topology`: the single-region, single-worker run
/// of runParallelTransfer() (harness/parsim.hpp).  Deterministic in
/// (topology, config).
[[nodiscard]] TransferReport runTransfer(const net::Topology& topology,
                                         const TransferConfig& config);

}  // namespace rmrn::harness
