#include "util/rng.hpp"

#include <cassert>
#include <stdexcept>

namespace rmrn::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform01() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniformReal(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniformReal: lo > hi");
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::uniformInt(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniformInt: n must be > 0");
  // Lemire-style rejection via threshold on the low bits.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the parent's full state with the stream key through splitmix64.
  std::uint64_t s = stream ^ 0xd1b54a32d192ed03ULL;
  std::uint64_t mixed = splitmix64(s);
  for (const std::uint64_t word : state_) {
    s ^= word;
    mixed ^= splitmix64(s);
  }
  return Rng(mixed);
}

}  // namespace rmrn::util
