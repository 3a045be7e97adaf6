// Coded repair over sliding windows — random linear coding (RLC) in GF(256),
// the network-coded retransmission class of PAPERS.md ("An Efficient Network
// Coding based Retransmission Algorithm for Wireless Multicasts").
//
// Data packets are grouped into consecutive windows of `window_size`
// sequences.  A client missing packets of a window NACKs the source with the
// number of ADDITIONAL coded repairs it needs (missing count minus current
// decoder rank); the source gathers NACKs per window for a short timer and
// then multicasts max(requested) coded repairs.  Each repair is a
// random-coefficient GF(256) combination of every sequence of the window
// sent so far; one multicast wave covers the UNION of the losers' missing
// sets, which is the scheme's bandwidth appeal under correlated (burst)
// loss.
//
// Unlike ParityProtocol's idealized parity counting, the decode here is an
// honest rank computation: coefficients are re-derived deterministically on
// both sides from (window, coded index) in a seeded substream (they never
// travel in the packet — sim::makeCodedTag), each client folds arriving
// rows into an incrementally maintained echelon form per window, and a
// window decodes exactly when the rank over its missing columns equals the
// missing count — never below (util::gf256 exactness contract).  A
// duplicated repair re-derives the identical row, reduces to zero and is
// discarded, so dedup (DESIGN.md §8 I9) holds by algebra rather than by
// bookkeeping.
//
// The NACK, gather and retry loop is NackWaveProtocol's (nack_wave.hpp),
// shared with ParityProtocol; this file is only the decoder.  Its repair
// path (coefficient derivation, row projection, elimination) writes only
// into fixed-size in-struct buffers — zero steady-state heap allocation,
// pinned by the coded alloc test.
#pragma once

#include <array>
#include <cstdint>

#include "protocols/nack_wave.hpp"

namespace rmrn::protocols {

struct CodedConfig {
  /// Data sequences per coding window (2 .. CodedDecoder::kMaxWindowSize).
  std::uint32_t window_size = 16;
  /// How long the source gathers NACKs before emitting a coded wave.
  double gather_window_ms = 20.0;
};

/// The GF(256) echelon decoder of one window per client.
class CodedDecoder {
 public:
  /// Hard cap on window_size: decoder state is fixed-size in-struct storage.
  static constexpr std::uint32_t kMaxWindowSize = 32;

  /// `rows` holds `rows_used` linearly independent coefficient rows (stride
  /// window_size, entries nonzero only on missing columns) kept in echelon
  /// form, so rows_used IS the decoder rank.  One extra row of headroom
  /// lets a candidate row be folded in place by gf256::eliminate.
  struct State {
    std::uint32_t rows_used = 0;
    std::array<std::uint8_t, (kMaxWindowSize + 1) * kMaxWindowSize> rows{};
  };

  CodedDecoder(std::uint32_t window_size, std::uint64_t coef_seed)
      : window_size_(window_size), coef_seed_(coef_seed) {}

  [[nodiscard]] static std::uint32_t rank(const State& state) {
    return state.rows_used;
  }
  static void reset(State& state) { state.rows_used = 0; }
  /// Eliminates unknown `col` from the stored rows: zeroing when the client
  /// obtained the packet (known value subtracted), pivot-elimination with a
  /// rank sacrifice when the unknown was abandoned.
  void dropColumn(State& state, std::uint32_t col, bool known) const;
  /// Projects a coded repair onto the client's unknowns and folds it in;
  /// true when it was innovative (rank grew).
  bool absorb(State& state, const ColumnSet& missing,
              const RecoveryProtocol& protocol, net::NodeId at,
              const sim::Packet& repair);
  /// PARITY.tag = (fresh coded index, coverage): a repair coded now covers
  /// the sequences of `window` the source has multicast so far.
  [[nodiscard]] std::uint64_t repairTag(std::uint64_t window,
                                        std::uint64_t index,
                                        std::uint64_t packets_sent) const;

  /// Rows discarded as linearly dependent (already in the decoder's span).
  std::uint64_t dependent_rows_dropped = 0;
  /// Rows dropped because the repair raced loss detection (it referenced a
  /// sequence the client neither holds nor has detected as missing yet).
  std::uint64_t raced_rows_dropped = 0;

 private:
  /// Deterministic coefficient substream: both the encoder and every
  /// decoder re-derive the same nonzero-forced vector from (window, index).
  void fillCoefficients(std::uint64_t window, std::uint64_t index,
                        std::uint32_t covered, std::uint8_t* out) const;
  /// Folds a candidate row (stride window_size, support on missing columns
  /// only) into the echelon form; returns true if it was innovative.
  bool addRow(State& state, const std::uint8_t* row);

  std::uint32_t window_size_;
  std::uint64_t coef_seed_;
};

extern template class NackWaveProtocol<CodedDecoder>;

class CodedProtocol final : public NackWaveProtocol<CodedDecoder> {
  /// White-box access for the zero-allocation pin and decoder tests.
  friend struct CodedProtocolTestPeer;

 public:
  static constexpr std::uint32_t kMaxWindowSize = CodedDecoder::kMaxWindowSize;

  /// `coef_seed` keys the coefficient substream.
  CodedProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
                const ProtocolConfig& config, const CodedConfig& coded_config,
                std::uint64_t coef_seed);

  [[nodiscard]] const CodedConfig& codedConfig() const { return coded_; }
  [[nodiscard]] std::uint64_t dependentRowsDropped() const {
    return decoder_.dependent_rows_dropped;
  }
  [[nodiscard]] std::uint64_t racedRowsDropped() const {
    return decoder_.raced_rows_dropped;
  }

 private:
  CodedConfig coded_;
};

}  // namespace rmrn::protocols
