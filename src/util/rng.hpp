// Deterministic, seedable random number generation.
//
// Experiments must be pure functions of their seed (DESIGN.md §6), so we
// implement xoshiro256** from scratch (no global state, no std::random_device)
// with splitmix64 seeding.  `fork()` derives statistically independent
// substreams, which the harness uses to keep topology generation, data-loss
// draws and per-protocol recovery-traffic draws decoupled.
#pragma once

#include <array>
#include <cstdint>

namespace rmrn::util {

/// splitmix64 step; used for seeding, stream derivation and the keyed loss
/// draws (sim/keyed_loss.hpp), whose hot loops inline it.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG (Blackman & Vigna), deterministic and copyable.
class Rng {
 public:
  /// Seeds the four-word state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).  Requires lo <= hi.
  double uniformReal(double lo, double hi);

  /// Uniform integer in [0, n).  Requires n > 0.  Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t uniformInt(std::uint64_t n);

  /// Bernoulli draw with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Derives an independent substream keyed by `stream`.  Two forks of the
  /// same Rng with different keys are statistically independent, and forking
  /// does not perturb this generator's sequence.
  [[nodiscard]] Rng fork(std::uint64_t stream) const;

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniformInt(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace rmrn::util
