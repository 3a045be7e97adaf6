// Parity-based source recovery — the paper's related-work category [5]
// (Nonnenmacher, Biersack & Towsley, "Parity-Based Loss Recovery for
// Reliable Multicast Transmission").
//
// Data packets are grouped into blocks of `block_size`.  A client missing
// packets of a block NACKs the source with the number of ADDITIONAL parity
// packets it needs; the source gathers NACKs for a short window and then
// multicasts max(requested) fresh parity packets for the block.  Erasure
// coding means any m distinct parities repair any m losses, so one wave
// serves every loser of the block at once — the scheme's bandwidth appeal.
// We model the coding combinatorics by counting distinct parity indices
// (REPAIR.tag); the latency/bandwidth behaviour the simulation measures is
// exactly that of a real Reed-Solomon implementation.
//
// A client decodes (recovers every missing packet of the block) once its
// distinct-parity count reaches its missing count; lost NACKs/parities are
// covered by a per-block retry timer.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "protocols/protocol.hpp"

namespace rmrn::protocols {

struct ParityConfig {
  /// Data packets per FEC block.
  std::uint32_t block_size = 8;
  /// How long the source gathers NACKs before emitting a parity wave.
  double gather_window_ms = 20.0;
};

class ParityProtocol final : public RecoveryProtocol {
  /// White-box regression access (tests/protocols/parity_protocol_test.cpp):
  /// the kTimerRetry stale-flag fix guards a state no organic event order
  /// reaches, so its test injects the timer fire directly.
  friend struct ParityProtocolTestPeer;

 public:
  ParityProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
                 const ProtocolConfig& config,
                 const ParityConfig& parity_config);

  [[nodiscard]] const ParityConfig& parityConfig() const { return parity_; }
  /// Parity packets multicast by the source (all waves, all blocks).
  [[nodiscard]] std::uint64_t sourceRepairMulticasts() const override {
    return parities_sent_;
  }
  /// NACKs issued by clients (first sends + retries).
  [[nodiscard]] std::uint64_t nacksSent() const override { return nacks_sent_; }

 private:
  void onLossDetected(net::NodeId client, std::uint64_t seq) override;
  void onRequest(net::NodeId at, const sim::Packet& packet) override;
  void onParity(net::NodeId at, const sim::Packet& packet) override;
  void onPacketObtained(net::NodeId client, std::uint64_t seq) override;
  void onClientCrashed(net::NodeId client) override;
  void onSessionAbandoned(net::NodeId client, std::uint64_t seq) override;
  [[nodiscard]] std::size_t openSessions() const override;
  void onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
               std::uint64_t c) override;

  /// Client NACK retry: a = client, b = block.
  static constexpr std::uint32_t kTimerRetry = kTimerSubclass;
  /// Source gather window closed: a = block.
  static constexpr std::uint32_t kTimerGather = kTimerSubclass + 1;

  [[nodiscard]] std::uint64_t blockOf(std::uint64_t seq) const {
    return seq / parity_.block_size;
  }
  static std::uint64_t key(net::NodeId node, std::uint64_t block) {
    return (static_cast<std::uint64_t>(node) << 32) | block;
  }

  /// Sends (or re-sends) the client's NACK for a block and arms the retry
  /// timer.
  void sendNack(net::NodeId client, std::uint64_t block, bool retransmit);
  /// True while some client still has losses open against `block`.
  [[nodiscard]] bool blockHasInterest(std::uint64_t block) const;
  /// Decodes if enough parities arrived; returns true when the block closed.
  bool tryDecode(net::NodeId client, std::uint64_t block);

  struct ClientBlock {
    std::set<std::uint64_t> missing;         // data seqs still lost
    std::set<std::uint64_t> parity_indices;  // distinct parities received
    /// Fresh parities received while this block's missing set was live —
    /// the decode currency.  Reset on every decode: a parity that arrived
    /// while the block was whole (or was consumed by an earlier decode)
    /// repairs nothing later, matching what an RS decoder that discards
    /// parity packets once the block completes can do.  Contrast with
    /// `parity_indices`, which only dedups re-deliveries forever.
    std::uint64_t innovative = 0;
    sim::EventId retry_timer = 0;
    bool timer_armed = false;
  };
  struct SourceBlock {
    std::uint64_t next_parity_index = 0;
    std::uint32_t wave_request = 0;  // max additional parities NACKed
    sim::EventId gather_timer = 0;
    bool gathering = false;
  };

  ParityConfig parity_;
  std::unordered_map<std::uint64_t, ClientBlock> client_blocks_;
  std::unordered_map<std::uint64_t, SourceBlock> source_blocks_;
  std::uint64_t parities_sent_ = 0;
  std::uint64_t nacks_sent_ = 0;
};

}  // namespace rmrn::protocols
