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
// fresh-parity count reaches its missing count; the NACK, gather and retry
// loop is NackWaveProtocol's (nack_wave.hpp), shared with the coded arm.
// This file is only the counting decoder.
#pragma once

#include <cstdint>
#include <set>

#include "protocols/nack_wave.hpp"

namespace rmrn::protocols {

struct ParityConfig {
  /// Data packets per FEC block.
  std::uint32_t block_size = 8;
  /// How long the source gathers NACKs before emitting a parity wave.
  double gather_window_ms = 20.0;
};

/// The idealized erasure decoder: any m fresh parities of a block repair
/// any m of its losses, so the rank is a count of fresh parity indices.
struct ParityDecoder {
  struct State {
    /// Distinct parity indices ever received; dedups network re-deliveries
    /// of a wave forever.
    std::set<std::uint64_t> parity_indices;
    /// Fresh parities received while the block's missing set was live —
    /// the decode currency.  Reset on every decode: a parity that arrived
    /// while the block was whole (or was consumed by an earlier decode)
    /// repairs nothing later, matching what an RS decoder that discards
    /// parity packets once the block completes can do.
    std::uint32_t innovative = 0;
  };

  [[nodiscard]] static std::uint32_t rank(const State& state) {
    return state.innovative;
  }
  static void reset(State& state) { state.innovative = 0; }
  /// A column leaving the missing set, obtained or abandoned, shrinks the
  /// system for free: the parities held still cover what is left.
  static void dropColumn(State&, std::uint32_t, bool) {}
  static bool absorb(State& state, const ColumnSet& missing,
                     const RecoveryProtocol&, net::NodeId,
                     const sim::Packet& parity) {
    const bool fresh = state.parity_indices.insert(parity.tag).second;
    if (!fresh || missing.empty()) return false;
    ++state.innovative;
    return true;
  }
  /// PARITY.tag = fresh parity index.
  [[nodiscard]] static std::uint64_t repairTag(std::uint64_t,
                                               std::uint64_t index,
                                               std::uint64_t) {
    return index;
  }
};

extern template class NackWaveProtocol<ParityDecoder>;

class ParityProtocol final : public NackWaveProtocol<ParityDecoder> {
  /// White-box regression access (tests/protocols/parity_protocol_test.cpp):
  /// the kTimerRetry stale-flag fix guards a state no organic event order
  /// reaches, so its test injects the timer fire directly.
  friend struct ParityProtocolTestPeer;

 public:
  ParityProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
                 const ProtocolConfig& config,
                 const ParityConfig& parity_config);

  [[nodiscard]] const ParityConfig& parityConfig() const { return parity_; }

 private:
  ParityConfig parity_;
};

}  // namespace rmrn::protocols
