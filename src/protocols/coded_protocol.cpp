#include "protocols/coded_protocol.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/check.hpp"
#include "util/gf256.hpp"
#include "util/rng.hpp"

namespace rmrn::protocols {

template class NackWaveProtocol<CodedDecoder>;

CodedProtocol::CodedProtocol(sim::SimNetwork& network,
                             metrics::RecoveryMetrics& metrics,
                             const ProtocolConfig& config,
                             const CodedConfig& coded_config,
                             std::uint64_t coef_seed)
    : NackWaveProtocol(network, metrics, config, coded_config.window_size,
                       coded_config.gather_window_ms,
                       CodedDecoder(coded_config.window_size, coef_seed)),
      coded_(coded_config) {
  if (coded_.window_size < 2 || coded_.window_size > kMaxWindowSize ||
      coded_.gather_window_ms < 0.0) {
    throw std::invalid_argument("CodedProtocol: bad coded config");
  }
}

void CodedDecoder::fillCoefficients(std::uint64_t window, std::uint64_t index,
                                    std::uint32_t covered,
                                    std::uint8_t* out) const {
  // Keyed substream: splitmix64 seeding inside Rng scrambles the combined
  // key, so consecutive (window, index) pairs give unrelated vectors while
  // every agent derives the identical one.  Coefficients are forced nonzero
  // (the RLC coefficient idiom): a zero would silently shrink the repair's
  // coverage below the advertised extent.
  util::Rng rng(coef_seed_ ^ (window * 0x9E3779B97F4A7C15ULL) ^
                ((index + 1) * 0xBF58476D1CE4E5B9ULL));
  std::uint64_t bits = 0;
  std::uint32_t avail = 0;
  for (std::uint32_t j = 0; j < covered; ++j) {
    if (avail == 0) {
      bits = rng.next();
      avail = 8;
    }
    const auto c = static_cast<std::uint8_t>(bits & 0xffU);
    bits >>= 8U;
    --avail;
    out[j] = c == 0 ? std::uint8_t{1} : c;
  }
}

bool CodedDecoder::addRow(State& state, const std::uint8_t* row) {
  const std::uint32_t w = window_size_;
  std::memcpy(&state.rows[state.rows_used * w], row, w);
  // Folding the candidate into the maintained echelon form costs one pass
  // over rows_used+1 rows; a dependent row reduces to zero and sinks.
  const std::size_t rank =
      util::gf256::eliminate(state.rows.data(), state.rows_used + 1, w);
  RMRN_ENSURE(rank == state.rows_used || rank == state.rows_used + 1,
              "CodedDecoder: elimination lost previously independent rows");
  if (rank == state.rows_used) {
    ++dependent_rows_dropped;
    return false;
  }
  state.rows_used = static_cast<std::uint32_t>(rank);
  return true;
}

void CodedDecoder::dropColumn(State& state, std::uint32_t col,
                              bool known) const {
  const std::uint32_t w = window_size_;
  if (known) {
    // The client obtained the packet: its contribution to every stored
    // combination is now subtractable, which symbolically zeroes the column.
    for (std::uint32_t r = 0; r < state.rows_used; ++r) {
      state.rows[r * w + col] = 0;
    }
  } else {
    // The unknown was abandoned: equations referencing it stay honest only
    // after the unknown is eliminated — one row pays for the substitution
    // and is discarded (a genuine rank sacrifice, unlike the parity model's
    // free shrink; see DESIGN.md §13).
    std::uint32_t pivot = state.rows_used;
    for (std::uint32_t r = 0; r < state.rows_used; ++r) {
      if (state.rows[r * w + col] != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot == state.rows_used) return;  // no stored row touches it
    std::uint8_t* prow = &state.rows[pivot * w];
    const std::uint8_t pinv = util::gf256::inv(prow[col]);
    for (std::uint32_t r = 0; r < state.rows_used; ++r) {
      if (r == pivot) continue;
      std::uint8_t* row = &state.rows[r * w];
      if (row[col] == 0) continue;
      util::gf256::addScaledRow(row, prow, w, util::gf256::mul(row[col], pinv));
    }
    const std::uint32_t last = state.rows_used - 1;
    if (pivot != last) std::memcpy(prow, &state.rows[last * w], w);
    std::memset(&state.rows[last * w], 0, w);
    --state.rows_used;
  }
  state.rows_used = static_cast<std::uint32_t>(
      util::gf256::eliminate(state.rows.data(), state.rows_used, w));
}

bool CodedDecoder::absorb(State& state, const ColumnSet& missing,
                          const RecoveryProtocol& protocol, net::NodeId at,
                          const sim::Packet& repair) {
  if (missing.empty()) return false;  // window already whole
  const std::uint64_t window = repair.seq;
  const std::uint32_t covered = sim::codedCoveredOf(repair.tag);
  const std::uint64_t index = sim::codedIndexOf(repair.tag);
  RMRN_REQUIRE(covered >= 1 && covered <= window_size_,
               "CodedDecoder: repair coverage outside the window");

  std::array<std::uint8_t, kMaxWindowSize> coefs{};
  fillCoefficients(window, index, covered, coefs.data());

  // Project the combination onto the client's unknowns: held positions are
  // subtracted out; support must land on detected-missing columns only.  A
  // repair referencing a sequence the client neither holds nor knows it
  // lost (the repair raced loss detection) is unusable — drop it whole; the
  // retry timer re-elicits coverage once the detection lands.
  std::array<std::uint8_t, kMaxWindowSize> row{};
  const std::uint64_t base = window * window_size_;
  for (std::uint32_t j = 0; j < covered; ++j) {
    if (protocol.hasPacket(at, base + j)) continue;
    if (!missing.contains(j)) {
      ++raced_rows_dropped;
      return false;
    }
    row[j] = coefs[j];
  }
  return addRow(state, row.data());
}

std::uint64_t CodedDecoder::repairTag(std::uint64_t window,
                                      std::uint64_t index,
                                      std::uint64_t packets_sent) const {
  const std::uint64_t base = window * window_size_;
  RMRN_REQUIRE(packets_sent > base,
               "CodedDecoder: repair for a window with nothing sent");
  const auto extent = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(window_size_, packets_sent - base));
  return sim::makeCodedTag(index, extent);
}

}  // namespace rmrn::protocols
