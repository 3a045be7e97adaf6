// FNV-1a fingerprint of a transfer's per-client completions, for goldens
// that pin every completion without listing them.
#pragma once

#include <bit>
#include <cstdint>

#include "harness/transfer.hpp"

namespace rmrn::harness {

/// Hashes every completion's (client, completed_at_ms bits, losses).
inline std::uint64_t completionHash(const TransferReport& report) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  for (const ClientCompletion& c : report.completions) {
    mix(c.client);
    mix(std::bit_cast<std::uint64_t>(c.completed_at_ms));
    mix(c.losses);
  }
  return h;
}

}  // namespace rmrn::harness
