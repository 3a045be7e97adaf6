// The NACK wave shared by the source-repair arms: FEC parity
// (parity_protocol.hpp) and coded repair (coded_protocol.hpp).
//
// Data sequences are grouped into consecutive units (FEC blocks, coded
// windows) of `unit_size`.  A client missing packets of a unit NACKs the
// source with the number of ADDITIONAL repairs it needs: its missing count
// minus its decoder's rank.  The source gathers the unit's NACKs for a
// short window and then multicasts max(requested) fresh repairs, one wave
// for every loser of the unit.  A per-(client, unit) retry timer re-NACKs
// until the unit decodes; lost NACKs and repairs are covered that way.
//
// Sequences leave a unit's missing set all at once on a decode, or singly
// when a data copy lands after detection (chaos duplication or jitter) or
// the watchdog abandons one.  A unit whose missing set empties resets its
// decoder and cancels its retry timer, so a late data copy ends the NACK
// cycle exactly as a decode does.
//
// The arms differ only in how a client decodes, supplied as the `Decoder`
// template parameter (so each arm's repair path is a direct, inlinable
// call).  A Decoder has a per-unit `State` and:
//   std::uint32_t rank(const State&) const       innovative repairs held
//   void reset(State&)                            forget them
//   void dropColumn(State&, std::uint32_t col, bool known)
//       `col` left the missing set: obtained (known) or abandoned
//   bool absorb(State&, const ColumnSet& missing, const RecoveryProtocol&,
//               net::NodeId at, const sim::Packet& repair)
//       folds an arriving repair in; true when the rank grew
//   std::uint64_t repairTag(std::uint64_t unit, std::uint64_t index,
//                           std::uint64_t packets_sent) const
//       the tag of the source's index-th repair of `unit`
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "protocols/protocol.hpp"
#include "util/check.hpp"

namespace rmrn::protocols {

/// A unit's missing columns.  Columns below 64 (every coded window, FEC's
/// usual blocks) live in one inline word; wider FEC blocks spill to `high_`.
class ColumnSet {
 public:
  /// Adds `col`; false when it was already present.
  bool insert(std::uint32_t col) {
    if (contains(col)) return false;
    word(col) |= bit(col);
    return true;
  }
  /// Removes `col`; false when it was absent.
  bool erase(std::uint32_t col) {
    if (!contains(col)) return false;
    word(col) &= ~bit(col);
    return true;
  }
  [[nodiscard]] bool contains(std::uint32_t col) const {
    if (col < 64) return (low_ & bit(col)) != 0;
    const std::size_t i = col / 64 - 1;
    return i < high_.size() && (high_[i] & bit(col)) != 0;
  }
  [[nodiscard]] std::uint32_t size() const {
    auto count = static_cast<std::uint32_t>(std::popcount(low_));
    for (const std::uint64_t w : high_) {
      count += static_cast<std::uint32_t>(std::popcount(w));
    }
    return count;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Empties the set, then calls `f(col)` for every former member in
  /// ascending order (so `f` may observe the set already empty).
  template <class F>
  void drain(F f) {
    const std::uint64_t low = std::exchange(low_, 0);
    const std::vector<std::uint64_t> high = std::exchange(high_, {});
    forEachBit(low, 0, f);
    for (std::size_t i = 0; i < high.size(); ++i) {
      forEachBit(high[i], static_cast<std::uint32_t>(64 * (i + 1)), f);
    }
  }

 private:
  static std::uint64_t bit(std::uint32_t col) {
    return std::uint64_t{1} << (col % 64);
  }
  std::uint64_t& word(std::uint32_t col) {
    if (col < 64) return low_;
    const std::size_t i = col / 64 - 1;
    if (i >= high_.size()) high_.resize(i + 1, 0);
    return high_[i];
  }
  template <class F>
  static void forEachBit(std::uint64_t bits, std::uint32_t base, F& f) {
    while (bits != 0) {
      f(base + static_cast<std::uint32_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }

  std::uint64_t low_ = 0;
  std::vector<std::uint64_t> high_;
};

template <class Decoder>
class NackWaveProtocol : public RecoveryProtocol {
 public:
  /// Repair packets multicast by the source (all waves, all units).
  [[nodiscard]] std::uint64_t sourceRepairMulticasts() const override {
    return repairs_sent_;
  }
  /// NACKs issued by clients (first sends + retries).
  [[nodiscard]] std::uint64_t nacksSent() const override { return nacks_sent_; }

 protected:
  NackWaveProtocol(sim::SimNetwork& network, metrics::RecoveryMetrics& metrics,
                   const ProtocolConfig& config, std::uint32_t unit_size,
                   double gather_window_ms, Decoder decoder)
      : RecoveryProtocol(network, metrics, config),
        decoder_(std::move(decoder)),
        unit_size_(unit_size),
        gather_window_ms_(gather_window_ms) {}

  /// Client NACK retry: a = client, b = unit.
  static constexpr std::uint32_t kTimerRetry = kTimerSubclass;
  /// Source gather window closed: a = unit.
  static constexpr std::uint32_t kTimerGather = kTimerSubclass + 1;

  struct ClientUnit {
    ColumnSet missing;  // columns of the unit still lost
    typename Decoder::State decoder;
    sim::EventId retry_timer = 0;
    bool timer_armed = false;
  };
  struct SourceUnit {
    std::uint64_t next_index = 0;    // fresh repair indices handed out
    std::uint32_t wave_request = 0;  // max additional repairs NACKed
    sim::EventId gather_timer = 0;
    bool gathering = false;
  };

  static std::uint64_t key(net::NodeId node, std::uint64_t unit) {
    return (static_cast<std::uint64_t>(node) << 32) | unit;
  }

  void onLossDetected(net::NodeId client, std::uint64_t seq) override;
  void onRequest(net::NodeId at, const sim::Packet& packet) override;
  void onParity(net::NodeId at, const sim::Packet& packet) override;
  void onPacketObtained(net::NodeId client, std::uint64_t seq) override {
    dropMissing(client, seq, /*known=*/true);
  }
  void onSessionAbandoned(net::NodeId client, std::uint64_t seq) override {
    dropMissing(client, seq, /*known=*/false);
  }
  void onClientCrashed(net::NodeId client) override;
  [[nodiscard]] std::size_t openSessions() const override;
  void onTimer(std::uint32_t kind, std::uint64_t a, std::uint64_t b,
               std::uint64_t c) override;

  // State is protected so the arms' white-box test peers can reach it.
  Decoder decoder_;
  // By key(client, unit), boxed: a coded unit's decoder rows take a
  // kilobyte, and each free slot of a flat table holds a default value.
  util::FlatTable<std::unique_ptr<ClientUnit>> client_units_;
  /// The source's wave state per unit.
  util::FlatTable<SourceUnit> source_units_;

 private:
  [[nodiscard]] std::uint32_t column(std::uint64_t seq) const {
    return static_cast<std::uint32_t>(seq % unit_size_);
  }
  /// `client`'s state for `unit`, or null.
  [[nodiscard]] ClientUnit* unitOf(net::NodeId client, std::uint64_t unit) {
    const std::unique_ptr<ClientUnit>* box =
        client_units_.find(key(client, unit));
    return box != nullptr ? box->get() : nullptr;
  }
  /// Sends (or re-sends) the client's NACK for a unit and arms the retry
  /// timer.
  void sendNack(net::NodeId client, std::uint64_t unit, ClientUnit& state,
                bool retransmit);
  /// Decodes if the rank covers every missing column; true when the unit
  /// closed.
  bool tryDecode(net::NodeId client, std::uint64_t unit, ClientUnit& state);
  /// (client, seq) left the missing set outside a decode: obtained (a late
  /// data copy) or abandoned.
  void dropMissing(net::NodeId client, std::uint64_t seq, bool known);
  void cancelRetry(ClientUnit& state) {
    if (!state.timer_armed) return;
    simulator().cancel(state.retry_timer);
    state.timer_armed = false;
  }
  /// True while some client still has losses open against `unit`.
  [[nodiscard]] bool unitHasInterest(std::uint64_t unit) const;

  std::uint32_t unit_size_;
  double gather_window_ms_;
  std::uint64_t repairs_sent_ = 0;
  std::uint64_t nacks_sent_ = 0;
};

// ------------------------------------------------------------ client side --

template <class Decoder>
void NackWaveProtocol<Decoder>::onLossDetected(net::NodeId client,
                                               std::uint64_t seq) {
  const std::uint64_t unit = seq / unit_size_;
  std::unique_ptr<ClientUnit>& box = client_units_[key(client, unit)];
  if (box == nullptr) box = std::make_unique<ClientUnit>();
  ClientUnit& state = *box;
  if (!state.missing.insert(column(seq))) {
    recordDuplicateSessionAttempt();
    return;
  }
  // Neither decoder holds a row touching a column not yet detected missing
  // (such repairs are dropped or not counted on arrival), so rank < missing
  // here and a NACK goes out.
  if (tryDecode(client, unit, state)) return;
  sendNack(client, unit, state, /*retransmit=*/false);
}

template <class Decoder>
void NackWaveProtocol<Decoder>::sendNack(net::NodeId client,
                                         std::uint64_t unit, ClientUnit& state,
                                         bool retransmit) {
  const std::uint32_t missing = state.missing.size();
  const std::uint32_t rank = decoder_.rank(state.decoder);
  const std::uint32_t needed = missing > rank ? missing - rank : 0;
  if (needed == 0) return;

  ++nacks_sent_;
  if (retransmit) recoveryMetrics().recordRetry();
  // REQUEST.seq carries the unit id, REQUEST.tag the additional repairs
  // wanted (rank deficit: repairs already held keep paying across waves).
  network().unicast(client, source(),
                    sim::Packet{sim::Packet::Type::kRequest, unit, client,
                                client, needed});
  // Waves carry the unit id as seq and originate at the source, so the
  // probe keyed (client, unit) matches the first repair back.
  noteRequestSent(client, unit, source(), retransmit);

  if (state.timer_armed) simulator().cancel(state.retry_timer);
  const double wait = requestTimeout(client, source()) + gather_window_ms_;
  state.retry_timer = scheduleTimerAfter(wait, kTimerRetry, client, unit);
  state.timer_armed = true;
}

template <class Decoder>
void NackWaveProtocol<Decoder>::onParity(net::NodeId at,
                                         const sim::Packet& packet) {
  const std::uint64_t unit = packet.seq;
  ClientUnit* state = unitOf(at, unit);
  if (state == nullptr) return;  // nothing missing here
  if (decoder_.absorb(state->decoder, state->missing, *this, at, packet)) {
    tryDecode(at, unit, *state);
  }
}

template <class Decoder>
bool NackWaveProtocol<Decoder>::tryDecode(net::NodeId client,
                                          std::uint64_t unit,
                                          ClientUnit& state) {
  const std::uint32_t missing = state.missing.size();
  const std::uint32_t rank = decoder_.rank(state.decoder);
  // Rank never exceeds the loss count, so decoding at full rank is exact,
  // never speculative.
  RMRN_ENSURE(rank <= missing, "NackWaveProtocol: rank exceeds missing count");
  if (missing == 0 || rank < missing) return false;
  // The decode consumes the held repairs: surplus does not bank for later
  // losses of the unit.
  decoder_.reset(state.decoder);
  cancelRetry(state);
  const std::uint64_t base = unit * unit_size_;
  state.missing.drain(
      [&](std::uint32_t col) {
        markHasPacket(client, base + col, metrics::Terminal::kDecoded);
      });
  return true;
}

template <class Decoder>
void NackWaveProtocol<Decoder>::dropMissing(net::NodeId client,
                                            std::uint64_t seq, bool known) {
  const std::uint64_t unit = seq / unit_size_;
  ClientUnit* found = unitOf(client, unit);
  if (found == nullptr) return;
  ClientUnit& state = *found;
  const std::uint32_t col = column(seq);
  if (!state.missing.erase(col)) return;
  decoder_.dropColumn(state.decoder, col, known);
  if (state.missing.empty()) {
    decoder_.reset(state.decoder);
    cancelRetry(state);
    return;
  }
  // The repairs already held may cover what is left.
  tryDecode(client, unit, state);
}

// ------------------------------------------------------------ source side --

template <class Decoder>
void NackWaveProtocol<Decoder>::onRequest(net::NodeId at,
                                          const sim::Packet& packet) {
  if (at != source()) return;  // NACKs are addressed to the source only
  // NACKs are deliberately excluded from the base-class request dedup
  // (shouldServeRequest): REQUEST.tag carries the rank deficit, not a dedup
  // tag.  A link-duplicated NACK is absorbed by the gather window while it
  // is open; at worst it triggers one extra wave of fresh-index repairs,
  // which every decoder absorbs idempotently.
  const std::uint64_t unit = packet.seq;
  SourceUnit& src = source_units_[unit];
  src.wave_request =
      std::max(src.wave_request, static_cast<std::uint32_t>(packet.tag));
  if (src.gathering) return;
  src.gathering = true;
  src.gather_timer = scheduleTimerAfter(gather_window_ms_, kTimerGather, unit);
}

template <class Decoder>
void NackWaveProtocol<Decoder>::onTimer(std::uint32_t kind, std::uint64_t a,
                                        std::uint64_t b, std::uint64_t c) {
  if (kind == kTimerRetry) {
    const auto client = static_cast<net::NodeId>(a);
    const std::uint64_t unit = b;
    ClientUnit* state = unitOf(client, unit);
    if (state == nullptr) return;
    // The fire consumed the handle, so the armed flag drops even when there
    // is nothing left to chase: leaving it set would make a later sendNack
    // for the unit cancel a handle this fire already consumed.
    state->timer_armed = false;
    if (state->missing.empty()) return;
    noteRequestTimeout(client, source());
    sendNack(client, unit, *state, /*retransmit=*/true);
    return;
  }
  if (kind == kTimerGather) {
    const std::uint64_t unit = a;
    SourceUnit& src = source_units_.at(unit);
    src.gathering = false;
    const std::uint32_t count = std::exchange(src.wave_request, 0);
    for (std::uint32_t i = 0; i < count; ++i) {
      ++repairs_sent_;
      // PARITY.seq = unit id, PARITY.tag = the arm's tag for a fresh index.
      network().multicastFromSource(sim::Packet{
          sim::Packet::Type::kParity, unit, source(), net::kInvalidNode,
          decoder_.repairTag(unit, src.next_index++, packetsSent())});
    }
    return;
  }
  RecoveryProtocol::onTimer(kind, a, b, c);  // throws
}

// ----------------------------------------------------------- housekeeping --

template <class Decoder>
std::size_t NackWaveProtocol<Decoder>::openSessions() const {
  std::size_t open = 0;
  // rmrn-lint: allow(DET-2) commutative integer accumulation
  for (const auto& [unused, state] : client_units_) {
    open += state->missing.size();
  }
  // A unit still gathering NACKs is live protocol state: counting it keeps
  // a pending wave from escaping the finalizeRun() sweep.
  // rmrn-lint: allow(DET-2) commutative integer accumulation
  for (const auto& [unused, src] : source_units_) {
    if (src.gathering) ++open;
  }
  return open;
}

template <class Decoder>
bool NackWaveProtocol<Decoder>::unitHasInterest(std::uint64_t unit) const {
  // rmrn-lint: allow(DET-2) order-independent existence scan
  for (const auto& [k, state] : client_units_) {
    if ((k & 0xffffffffULL) == unit && !state->missing.empty()) return true;
  }
  return false;
}

template <class Decoder>
void NackWaveProtocol<Decoder>::onClientCrashed(net::NodeId client) {
  eraseClient(client_units_, client,
              [this](std::unique_ptr<ClientUnit>& state) {
                cancelRetry(*state);
              });
  // A gather window the crashed client's NACKs opened must not fire into a
  // unit with no remaining interested client: cancel it, or the wave is a
  // wasted multicast and the gathering unit outlives every session.
  // rmrn-lint: allow(DET-2) per-unit cancel sweep; cancel order only permutes the slab free list, never (time, seq) event order
  for (auto&& [unit, src] : source_units_) {
    if (!src.gathering || unitHasInterest(unit)) continue;
    simulator().cancel(src.gather_timer);
    src.gathering = false;
    src.wave_request = 0;
  }
}

}  // namespace rmrn::protocols
