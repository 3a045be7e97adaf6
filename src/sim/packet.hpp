// Packet model shared by all recovery protocols.
#pragma once

#include <compare>
#include <cstdint>
#include <string_view>

#include "net/types.hpp"

namespace rmrn::sim {

struct Packet {
  enum class Type : std::uint8_t {
    kData,     // original multicast transmission from the source
    kRequest,  // recovery request / NACK
    kRepair,   // retransmission of a lost data packet
    kParity,   // FEC parity packet (seq = block id, tag = parity index)
  };

  Type type = Type::kData;
  /// Sequence number of the data packet this concerns.
  std::uint64_t seq = 0;
  /// Logical sender of this packet (not the current hop).
  net::NodeId origin = net::kInvalidNode;
  /// Client being served, for requests and unicast repairs.
  net::NodeId requester = net::kInvalidNode;
  /// Protocol-defined tag (e.g. an RMA search hop index).
  std::uint64_t tag = 0;

  friend auto operator<=>(const Packet&, const Packet&) = default;
};

// Coded-repair tag packing (protocols::CodedProtocol).  A coded repair is a
// kParity packet with seq = window id and tag = (coded index, covered count):
// `coded index` seeds the deterministic per-repair coefficient substream
// (both encoder and decoders re-derive the same GF(256) coefficient vector
// from (window, index), so coefficients never travel in the packet), and
// `covered count` is how many leading sequences of the window the
// combination spans — the late-loss honesty bound: a repair cannot help a
// position it was coded before.
inline constexpr std::uint64_t kCodedCoveredBits = 16;
inline constexpr std::uint64_t kCodedCoveredMask =
    (std::uint64_t{1} << kCodedCoveredBits) - 1;

[[nodiscard]] constexpr std::uint64_t makeCodedTag(std::uint64_t coded_index,
                                                   std::uint32_t covered) {
  return (coded_index << kCodedCoveredBits) | (covered & kCodedCoveredMask);
}
[[nodiscard]] constexpr std::uint64_t codedIndexOf(std::uint64_t tag) {
  return tag >> kCodedCoveredBits;
}
[[nodiscard]] constexpr std::uint32_t codedCoveredOf(std::uint64_t tag) {
  return static_cast<std::uint32_t>(tag & kCodedCoveredMask);
}

[[nodiscard]] constexpr std::string_view toString(Packet::Type t) {
  switch (t) {
    case Packet::Type::kData:
      return "DATA";
    case Packet::Type::kRequest:
      return "REQUEST";
    case Packet::Type::kRepair:
      return "REPAIR";
    case Packet::Type::kParity:
      return "PARITY";
  }
  return "?";
}

}  // namespace rmrn::sim
