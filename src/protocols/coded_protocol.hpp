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
// The source keeps its per-window repair state in a flat ring of
// `ring_windows` slots allocated once at construction; a NACK for a window
// that has slid out of the ring span fires a contract check instead of
// silently reusing coded indices.  The client-side decode path (coefficient
// derivation, row projection, elimination) writes only into fixed-size
// in-struct buffers — zero steady-state heap allocation, pinned by the
// coded alloc test.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "protocols/protocol.hpp"
#include "util/rng.hpp"

namespace rmrn::protocols {

struct CodedConfig {
  /// Data sequences per coding window (2 .. kMaxWindowSize).
  std::uint32_t window_size = 16;
  /// Source-side ring capacity in windows; a NACK may reference any of the
  /// most recent `ring_windows` windows.
  std::uint32_t ring_windows = 64;
  /// How long the source gathers NACKs before emitting a coded wave.
  double gather_window_ms = 20.0;
};

class CodedProtocol final : public RecoveryProtocol {
  /// White-box access for the zero-allocation pin and ring tests.
  friend struct CodedProtocolTestPeer;

 public:
  /// Hard cap on window_size: decoder state is fixed-size in-struct storage.
  static constexpr std::uint32_t kMaxWindowSize = 32;

  /// `coef_rng` seeds the coefficient substream; fork it off the run's root
  /// RNG so coded-off runs draw an identical stream sequence (engine
  /// determinism goldens stay bit-identical).
  CodedProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
                const ProtocolConfig& config, const CodedConfig& coded_config,
                util::Rng coef_rng);

  [[nodiscard]] const CodedConfig& codedConfig() const { return coded_; }
  /// Coded repair packets multicast by the source (all waves, all windows).
  [[nodiscard]] std::uint64_t sourceRepairMulticasts() const override {
    return coded_repairs_sent_;
  }
  /// NACKs issued by clients (first sends + retries).
  [[nodiscard]] std::uint64_t nacksSent() const override { return nacks_sent_; }
  /// Rows discarded as linearly dependent (already in the decoder's span).
  [[nodiscard]] std::uint64_t dependentRowsDropped() const {
    return dependent_rows_dropped_;
  }
  /// Rows dropped because the repair raced loss detection (it referenced a
  /// sequence the client neither holds nor has detected as missing yet).
  [[nodiscard]] std::uint64_t racedRowsDropped() const {
    return raced_rows_dropped_;
  }

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

  /// Client NACK retry: a = client, b = window.
  static constexpr std::uint32_t kTimerRetry = kTimerSubclass;
  /// Source gather window closed: a = window.
  static constexpr std::uint32_t kTimerGather = kTimerSubclass + 1;

  /// Per-client decoder state for one window.  Fixed-size storage: `rows`
  /// holds `rows_used` linearly independent coefficient rows (stride
  /// window_size, entries nonzero only on missing columns) kept in echelon
  /// form, so rows_used IS the decoder rank.  One extra row of headroom
  /// lets a candidate row be folded in place by gf256::eliminate.
  struct ClientWindow {
    std::uint64_t missing_mask = 0;  // bit j <=> seq window*W+j missing
    std::uint32_t rows_used = 0;
    std::array<std::uint8_t, (kMaxWindowSize + 1) * kMaxWindowSize> rows{};
    sim::EventId retry_timer = 0;
    bool timer_armed = false;
  };

  /// One slot of the source's window ring.
  struct SourceWindow {
    static constexpr std::uint64_t kNoWindow = ~std::uint64_t{0};
    std::uint64_t window = kNoWindow;
    std::uint64_t next_coded_index = 0;
    std::uint32_t wave_request = 0;  // max additional repairs NACKed
    sim::EventId gather_timer = 0;
    bool gathering = false;
  };

  [[nodiscard]] std::uint64_t windowOf(std::uint64_t seq) const {
    return seq / coded_.window_size;
  }
  static std::uint64_t key(net::NodeId node, std::uint64_t window) {
    return (static_cast<std::uint64_t>(node) << 32) | window;
  }

  /// Ring slot for `window`, recycled (and reset) on first touch; fires a
  /// contract check if the window has slid out of the ring span.
  [[nodiscard]] SourceWindow& sourceSlot(std::uint64_t window);
  /// Sequences of `window` the source has multicast so far (the coverage of
  /// a repair coded now).
  [[nodiscard]] std::uint32_t windowExtent(std::uint64_t window) const;
  /// Deterministic coefficient substream: both the encoder and every
  /// decoder re-derive the same nonzero-forced vector from (window, index).
  void fillCoefficients(std::uint64_t window, std::uint64_t index,
                        std::uint32_t covered, std::uint8_t* out) const;

  /// Folds a candidate row (stride window_size, support on missing columns
  /// only) into the client's echelon form; returns true if it was
  /// innovative (rank grew).
  bool addRow(ClientWindow& state, const std::uint8_t* row);
  /// Eliminates unknown `col` from the stored rows: zeroing when the client
  /// obtained the packet (known value subtracted), pivot-elimination with a
  /// rank sacrifice when the unknown was abandoned.
  void dropColumn(ClientWindow& state, std::uint32_t col, bool known);
  /// Sends (or re-sends) the client's NACK for a window and arms the retry
  /// timer.
  void sendNack(net::NodeId client, std::uint64_t window, bool retransmit);
  /// Decodes if rank covers every missing column; true when the window
  /// closed.
  bool tryDecode(net::NodeId client, std::uint64_t window);
  /// True while some client still has losses open against `window`.
  [[nodiscard]] bool windowHasInterest(std::uint64_t window) const;

  CodedConfig coded_;
  std::uint64_t coef_seed_ = 0;
  std::vector<SourceWindow> ring_;  // sized once at construction
  std::uint64_t highest_window_ = 0;
  std::unordered_map<std::uint64_t, ClientWindow> client_windows_;
  std::uint64_t coded_repairs_sent_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t dependent_rows_dropped_ = 0;
  std::uint64_t raced_rows_dropped_ = 0;
};

}  // namespace rmrn::protocols
