// Keyed recovery-loss and chaos draws.
//
// The paper's §5.1 model gives every link traversal an independent loss, and
// says nothing about event order.  So whether one send is lost on one link is
// a fixed fact, and SimNetwork computes it as a pure function instead of
// drawing it from a sequential stream:
//
//   lost  iff  linkDraw(sendHash(seed, key), slot) < lossThreshold(p)
//
// `key` names the send: the node it leaves from and that node's own send
// counter.  `slot` is the CSR half-edge the send crosses the link through.
// Chaos draws take the same shape: a crossing's reorder jitter and whether
// it duplicates the packet are further functions of (send hash, slot), each
// salted into its own stream, and a duplicate is a second transmission keyed
// by copyKey(send hash, slot), so a copy of a copy has its own lineage.
// No draw depends on the order events fire in.  The closed form can therefore
// decide a link's loss when it expands the link, before the packet crosses
// it, and every region of a parallel run decides exactly what the serial run
// decides (DESIGN.md §10.2, §14).
#pragma once

#include <cmath>
#include <cstdint>

#include "net/types.hpp"
#include "util/rng.hpp"

namespace rmrn::sim {

/// Identity of one send, for its loss draws: (sending node << 32) | that
/// node's send counter.  A data flood with a forced loss pattern draws
/// nothing; its key is patternKey(id), which names the pattern-arena entry
/// instead (no node id is kInvalidNode, so the two never collide).
using SendKey = std::uint64_t;

[[nodiscard]] constexpr SendKey sendKey(net::NodeId sender,
                                        std::uint32_t count) {
  return (SendKey{sender} << 32) | count;
}
[[nodiscard]] constexpr SendKey patternKey(std::uint32_t pattern) {
  return sendKey(net::kInvalidNode, pattern);
}
[[nodiscard]] constexpr bool isPatternKey(SendKey key) {
  return (key >> 32) == net::kInvalidNode;
}
[[nodiscard]] constexpr std::uint32_t patternOf(SendKey key) {
  return static_cast<std::uint32_t>(key);
}

/// The loss seed a network built from `rng` draws with: its first output.
[[nodiscard]] inline std::uint64_t lossSeedOf(util::Rng rng) {
  return rng.next();
}

/// Draws below this lose the link: p * 2^64, so P(lost) = p up to 2^-64.
/// Zero for p = 0, which no draw is below.  Requires p in [0, 1).
[[nodiscard]] inline std::uint64_t lossThreshold(double p) {
  return static_cast<std::uint64_t>(std::ldexp(p, 64));
}

/// Per-send hash that every link draw of the send starts from.
[[nodiscard]] inline std::uint64_t sendHash(std::uint64_t seed, SendKey key) {
  std::uint64_t state = seed ^ key;
  return util::splitmix64(state);
}

/// Uniform 64-bit draw of the send with hash `send` on CSR half-edge
/// `slot`: the slot-th output of a splitmix64 stream seeded by the send.
[[nodiscard]] inline std::uint64_t linkDraw(std::uint64_t send,
                                            std::uint32_t slot) {
  std::uint64_t state = send + slot * 0x9e3779b97f4a7c15ULL;
  return util::splitmix64(state);
}

/// Stream salts of the chaos draws; each re-mixes the send hash, so a
/// crossing's jitter, duplication and copy key are independent of its loss
/// draw and of each other.
inline constexpr std::uint64_t kJitterSalt = 0x6a09e667f3bcc909ULL;
inline constexpr std::uint64_t kDuplicateSalt = 0xbb67ae8584caa73bULL;
inline constexpr std::uint64_t kCopySalt = 0x3c6ef372fe94f82bULL;

/// Uniform 64-bit chaos draw of the send with hash `send` on CSR half-edge
/// `slot`, in the stream `salt` names.
[[nodiscard]] inline std::uint64_t chaosDraw(std::uint64_t send,
                                             std::uint64_t salt,
                                             std::uint32_t slot) {
  std::uint64_t state = send ^ salt;
  return linkDraw(util::splitmix64(state), slot);
}

/// Uniform in [0, jitter_ms) from the 64-bit `draw`: a crossing's reorder
/// jitter, or an SRM timer's offset in its window.
[[nodiscard]] inline double jitterOf(std::uint64_t draw, double jitter_ms) {
  return jitter_ms * (static_cast<double>(draw >> 11) * 0x1p-53);
}

/// The key of the copy a duplication on CSR half-edge `slot` makes of the
/// send with hash `send`.  Its top bit is clear, so no copy key reads as a
/// pattern key.
[[nodiscard]] inline SendKey copyKey(std::uint64_t send, std::uint32_t slot) {
  return chaosDraw(send, kCopySalt, slot) >> 1;
}

}  // namespace rmrn::sim
