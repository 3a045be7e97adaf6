#include "util/gf256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace rmrn::util::gf256 {
namespace {

TEST(Gf256Test, FieldAxiomsOnGenerators) {
  // 1 is the multiplicative identity; 0 annihilates.
  for (unsigned a = 0; a < 256; ++a) {
    const auto b = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(b, 1), b);
    EXPECT_EQ(mul(1, b), b);
    EXPECT_EQ(mul(b, 0), 0);
    EXPECT_EQ(mul(0, b), 0);
  }
  // The generator 2 has order 255: its powers enumerate every nonzero
  // element exactly once.
  std::array<bool, 256> seen{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    EXPECT_FALSE(seen[x]) << "2^" << i << " repeated";
    seen[x] = true;
    x = mul(x, 2);
  }
  EXPECT_EQ(x, 1) << "generator order is not 255";
}

TEST(Gf256Test, MulInvRoundTripAllNonzeroElements) {
  // a * inv(a) == 1 for every one of the 255 nonzero elements, and
  // div undoes mul for every nonzero divisor.
  for (unsigned a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(ua, inv(ua)), 1) << "a = " << a;
    EXPECT_EQ(inv(inv(ua)), ua) << "a = " << a;
  }
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 1; b < 256; ++b) {
      const auto ua = static_cast<std::uint8_t>(a);
      const auto ub = static_cast<std::uint8_t>(b);
      ASSERT_EQ(div(mul(ua, ub), ub), ua) << a << " * " << b;
    }
  }
}

TEST(Gf256Test, MulTableMatchesCarrylessReference) {
  // The flat table against a bitwise Russian-peasant multiply straight from
  // the 0x11d polynomial definition — an independent derivation.
  const auto reference = [](std::uint8_t a, std::uint8_t b) {
    std::uint32_t acc = 0;
    std::uint32_t aa = a;
    for (std::uint32_t bb = b; bb != 0; bb >>= 1U) {
      if ((bb & 1U) != 0) acc ^= aa;
      aa <<= 1U;
      if ((aa & 0x100U) != 0) aa ^= kPoly;
    }
    return static_cast<std::uint8_t>(acc);
  };
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(mul(static_cast<std::uint8_t>(a),
                    static_cast<std::uint8_t>(b)),
                reference(static_cast<std::uint8_t>(a),
                          static_cast<std::uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

#if RMRN_CHECKS_ENABLED
TEST(Gf256Test, InvOfZeroFiresContract) {
  EXPECT_THROW((void)inv(0), util::ContractViolation);
}
#endif

TEST(Gf256Test, RowOpsMatchScalarArithmetic) {
  util::Rng rng(7);
  std::array<std::uint8_t, 32> src{};
  std::array<std::uint8_t, 32> dst{};
  for (auto& v : src) v = static_cast<std::uint8_t>(rng.uniformInt(256));
  for (auto& v : dst) v = static_cast<std::uint8_t>(rng.uniformInt(256));
  const std::array<std::uint8_t, 32> dst0 = dst;
  const std::uint8_t c = 0x53;
  addScaledRow(dst.data(), src.data(), dst.size(), c);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    EXPECT_EQ(dst[i], add(dst0[i], mul(c, src[i])));
  }
  std::array<std::uint8_t, 32> row = src;
  scaleRow(row.data(), row.size(), c);
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i], mul(c, src[i]));
  }
  // c == 0 on addScaledRow is a no-op.
  std::array<std::uint8_t, 32> dst1 = dst;
  addScaledRow(dst1.data(), src.data(), dst1.size(), 0);
  EXPECT_EQ(dst1, dst);
}

// Builds a random k x k system A x = b with known solution x and returns the
// augmented [A | b]; `drop_rank` replaces the last `drop_rank` rows with
// linear combinations of earlier ones, planting a known rank deficiency.
std::vector<std::uint8_t> makeSystem(util::Rng& rng, std::size_t k,
                                     std::vector<std::uint8_t>& x_out,
                                     std::size_t drop_rank) {
  const std::size_t cols = k + 1;
  std::vector<std::uint8_t> aug(k * cols, 0);
  x_out.resize(k);
  for (auto& v : x_out) v = static_cast<std::uint8_t>(rng.uniformInt(256));
  for (std::size_t r = 0; r < k; ++r) {
    std::uint8_t rhs = 0;
    for (std::size_t c = 0; c < k; ++c) {
      // Nonzero-forced coefficients — the RLC coefficient idiom; also makes
      // full rank overwhelmingly likely for the independent rows.
      const auto coef = static_cast<std::uint8_t>(1 + rng.uniformInt(255));
      aug[r * cols + c] = coef;
      rhs = add(rhs, mul(coef, x_out[c]));
    }
    aug[r * cols + k] = rhs;
  }
  for (std::size_t d = 0; d < drop_rank && d < k; ++d) {
    // Overwrite row k-1-d with c1*row0 + c2*row1 (consistent rhs included),
    // making it dependent without touching the solution set.
    const std::size_t victim = k - 1 - d;
    const auto c1 = static_cast<std::uint8_t>(1 + rng.uniformInt(255));
    // Mixing in row 1 is only a genuine dependency when row 1 is not the
    // victim itself (c1*r0 + c2*r1 written into r1 spans the same space).
    const auto c2 = victim >= 2
                        ? static_cast<std::uint8_t>(rng.uniformInt(256))
                        : static_cast<std::uint8_t>(0);
    for (std::size_t c = 0; c < cols; ++c) {
      aug[victim * cols + c] = add(mul(c1, aug[0 * cols + c]),
                                   mul(c2, aug[1 * cols + c]));
    }
  }
  return aug;
}

TEST(Gf256Test, RandomSystemsDecodeExactlyAtFullRank) {
  util::Rng rng(20030401);
  for (std::size_t k = 1; k <= 16; ++k) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<std::uint8_t> x_true;
      std::vector<std::uint8_t> aug = makeSystem(rng, k, x_true, 0);
      std::vector<std::uint8_t> x(k, 0);
      const std::size_t rank = solve(aug.data(), x.data(), k);
      ASSERT_EQ(rank, k) << "k = " << k;
      EXPECT_EQ(x, x_true) << "k = " << k;
    }
  }
}

TEST(Gf256Test, RankDeficientSystemsNeverDecode) {
  util::Rng rng(42);
  for (std::size_t k = 2; k <= 16; ++k) {
    for (std::size_t drop = 1; drop < k && drop <= 3; ++drop) {
      std::vector<std::uint8_t> x_true;
      std::vector<std::uint8_t> aug = makeSystem(rng, k, x_true, drop);
      std::vector<std::uint8_t> x(k, 0xEE);
      const std::size_t rank = solve(aug.data(), x.data(), k);
      EXPECT_LT(rank, k) << "k = " << k << " drop = " << drop;
      // Below full rank the solution buffer must be untouched — the decoder
      // never emits a guess.
      EXPECT_TRUE(std::all_of(x.begin(), x.end(),
                              [](std::uint8_t v) { return v == 0xEE; }));
    }
  }
}

TEST(Gf256Test, EliminateReportsRankAndEchelonForm) {
  util::Rng rng(9);
  const std::size_t rows = 12;
  const std::size_t cols = 8;
  std::vector<std::uint8_t> m(rows * cols);
  for (auto& v : m) v = static_cast<std::uint8_t>(rng.uniformInt(256));
  std::vector<std::uint8_t> copy = m;
  const std::size_t rank = eliminate(m.data(), rows, cols);
  EXPECT_LE(rank, cols);
  // Echelon shape: each nonzero row's pivot is 1 and strictly right of the
  // previous pivot; rows at and beyond the rank are zero.
  std::size_t last_pivot = 0;
  for (std::size_t r = 0; r < rank; ++r) {
    std::size_t pivot = 0;
    while (pivot < cols && m[r * cols + pivot] == 0) ++pivot;
    ASSERT_LT(pivot, cols) << "zero row inside the rank";
    EXPECT_EQ(m[r * cols + pivot], 1);
    if (r > 0) {
      EXPECT_GT(pivot, last_pivot);
    }
    last_pivot = pivot;
  }
  for (std::size_t r = rank; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(m[r * cols + c], 0) << "residue below the rank";
    }
  }
  // Rank is invariant under re-elimination, and a wide random matrix is
  // full column rank with overwhelming probability.
  EXPECT_EQ(eliminate(m.data(), rows, cols), rank);
  EXPECT_EQ(eliminate(copy.data(), rows, cols), rank);
}

}  // namespace
}  // namespace rmrn::util::gf256
