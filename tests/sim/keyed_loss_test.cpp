// Statistical checks of the keyed recovery-loss and chaos draws
// (sim/keyed_loss.hpp).
//
// The paper's §5.1 model: every link traversal is lost independently with
// probability p.  A keyed draw must give each (send, link) pair that
// marginal, and no correlation between two links of one send or between
// consecutive sends from one node.  Counts are compared with the binomial
// they should follow, to 5 standard deviations, so a correct draw fails
// with probability below 1e-6 per check while a key that ignores the link
// or the send counter is off by hundreds of deviations.
#include "sim/keyed_loss.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rmrn::sim {
namespace {

constexpr std::uint64_t kSeed = 0x5eed5eed12345678ULL;
constexpr std::uint32_t kSends = 200000;

/// Expects `hits` out of `trials` Bernoulli(q) trials within 5 sigma.
void expectBinomial(std::uint64_t hits, std::uint64_t trials, double q) {
  const double mean = static_cast<double>(trials) * q;
  const double sigma = std::sqrt(mean * (1.0 - q));
  EXPECT_LT(std::abs(static_cast<double>(hits) - mean), 5.0 * sigma)
      << hits << " of " << trials << " at q = " << q;
}

bool lost(SendKey key, std::uint32_t slot, std::uint64_t threshold) {
  return linkDraw(sendHash(kSeed, key), slot) < threshold;
}

class KeyedLossTest : public ::testing::TestWithParam<double> {};

TEST_P(KeyedLossTest, PerLinkFrequencyIsBinomial) {
  const double p = GetParam();
  const std::uint64_t threshold = lossThreshold(p);
  // Links of several nodes' rows, near and far apart in the CSR table.
  for (const std::uint32_t slot : {0u, 1u, 2u, 77u, 4095u, 123456u}) {
    std::uint64_t losses = 0;
    for (std::uint32_t i = 0; i < kSends; ++i) {
      losses += lost(sendKey(/*sender=*/i % 7, i / 7), slot, threshold);
    }
    SCOPED_TRACE(slot);
    expectBinomial(losses, kSends, p);
  }
}

TEST_P(KeyedLossTest, TwoLinksOfOneSendAreIndependent) {
  const double p = GetParam();
  const std::uint64_t threshold = lossThreshold(p);
  for (const auto& [a, b] : {std::pair{0u, 1u}, std::pair{5u, 6u},
                            std::pair{3u, 1000u}}) {
    std::uint64_t both = 0;
    for (std::uint32_t i = 0; i < kSends; ++i) {
      const SendKey key = sendKey(/*sender=*/42, i);
      both += lost(key, a, threshold) && lost(key, b, threshold);
    }
    SCOPED_TRACE(testing::Message() << a << "," << b);
    expectBinomial(both, kSends, p * p);
  }
}

TEST_P(KeyedLossTest, ConsecutiveSendsOfOneNodeAreIndependent) {
  const double p = GetParam();
  const std::uint64_t threshold = lossThreshold(p);
  for (const std::uint32_t slot : {0u, 9u, 31337u}) {
    // Disjoint pairs (2i, 2i + 1) keep the trials independent.
    std::uint64_t both = 0;
    for (std::uint32_t i = 0; i < kSends; ++i) {
      both += lost(sendKey(/*sender=*/3, 2 * i), slot, threshold) &&
              lost(sendKey(/*sender=*/3, 2 * i + 1), slot, threshold);
    }
    SCOPED_TRACE(slot);
    expectBinomial(both, kSends, p * p);
  }
}

/// Chain 0 - 1 - 2 - 3 (tree = the chain, source 0, client 3).
net::Topology chain() {
  net::Topology topo;
  topo.graph = net::Graph(4);
  std::vector<net::NodeId> parent(4, net::kInvalidNode);
  for (net::NodeId v = 1; v < 4; ++v) {
    topo.graph.addEdge(v - 1, v, 1.0 + 0.25 * v);
    parent[v] = v - 1;
  }
  topo.tree = net::MulticastTree(0, parent);
  topo.source = 0;
  topo.clients = {3};
  return topo;
}

TEST_P(KeyedLossTest, NetworkDrawsEachHopOfEachSendIndependently) {
  // Through SimNetwork: unicasts 0 -> 3 reach link k only if they survived
  // the k - 1 links before it, and arrive if they survive all three.  Two
  // consecutive sends both arrive with probability (q^3)^2.
  const double p = GetParam();
  const double q = 1.0 - p;
  const net::Topology topo = chain();
  const net::Routing routing(topo.graph);
  Simulator sim;
  SimNetwork network(sim, topo, routing, p, lossSeedOf(util::Rng(9)));
  constexpr std::uint32_t kUnicasts = 100000;
  std::vector<bool> arrived(kUnicasts, false);
  network.setDeliveryHandler([&arrived](net::NodeId, const Packet& packet) {
    arrived[packet.seq] = true;
  });
  for (std::uint32_t i = 0; i < kUnicasts; ++i) {
    network.unicast(0, 3, Packet{Packet::Type::kRequest, i, 0, 0, 0});
  }
  sim.run();
  EXPECT_EQ(network.recoveryLinkLoad(0, 1), kUnicasts);
  expectBinomial(network.recoveryLinkLoad(1, 2), kUnicasts, q);
  expectBinomial(network.recoveryLinkLoad(2, 3), kUnicasts, q * q);
  expectBinomial(network.stats().deliveries, kUnicasts, q * q * q);
  std::uint64_t pairs = 0;
  for (std::uint32_t i = 0; i + 1 < kUnicasts; i += 2) {
    pairs += arrived[i] && arrived[i + 1];
  }
  expectBinomial(pairs, kUnicasts / 2, std::pow(q, 6));
}

INSTANTIATE_TEST_SUITE_P(LossProbs, KeyedLossTest,
                         ::testing::Values(0.02, 0.1, 0.3));

/// Keyed chaos draws (duplication, jitter, copy keys).  Like the loss draw,
/// each is a pure function of (send hash, slot), and a copy's draws must
/// look like a fresh send's: independent of its original's, and of a copy
/// the same send made on another link.
class KeyedChaosTest : public ::testing::TestWithParam<double> {};

bool duplicates(std::uint64_t send, std::uint32_t slot,
                std::uint64_t threshold) {
  return chaosDraw(send, kDuplicateSalt, slot) < threshold;
}

/// The send hash of the `i`-th send of the draws below: a keyed recovery
/// send, or every other one a forced-pattern data flood (which draws by
/// patternKey(seq)).
std::uint64_t nthSend(std::uint32_t i) {
  return sendHash(kSeed, i % 2 == 0 ? sendKey(i % 5, i / 2) : patternKey(i));
}

TEST_P(KeyedChaosTest, DuplicationFrequencyIsBinomial) {
  const double p = GetParam();
  const std::uint64_t threshold = lossThreshold(p);
  for (const std::uint32_t slot : {0u, 3u, 4095u, 123456u}) {
    std::uint64_t dups = 0;
    for (std::uint32_t i = 0; i < kSends; ++i) {
      dups += duplicates(nthSend(i), slot, threshold);
    }
    SCOPED_TRACE(slot);
    expectBinomial(dups, kSends, p);
  }
}

TEST_P(KeyedChaosTest, CopyDrawsAreIndependentOfTheOriginal) {
  // Duplication and jitter of a copy against its original's on the next
  // link, for keyed sends and forced-pattern floods alike; loss for keyed
  // sends (a forced-pattern flood's copy takes its losses from the pattern).
  const double p = GetParam();
  const std::uint64_t threshold = lossThreshold(p);
  constexpr std::uint32_t kDupSlot = 11;
  constexpr std::uint32_t kNextSlot = 12;
  std::uint64_t both_lost = 0, both_dup = 0, both_late = 0;
  for (std::uint32_t i = 0; i < kSends; ++i) {
    const std::uint64_t send = nthSend(i);
    const std::uint64_t copy = sendHash(kSeed, copyKey(send, kDupSlot));
    both_lost += i % 2 == 0 && linkDraw(send, kNextSlot) < threshold &&
                 linkDraw(copy, kNextSlot) < threshold;
    both_dup += duplicates(send, kNextSlot, threshold) &&
                duplicates(copy, kNextSlot, threshold);
    // Jitter above the (1 - p) quantile on both.
    both_late += jitterOf(chaosDraw(send, kJitterSalt, kNextSlot), 1.0) >=
                     1.0 - p &&
                 jitterOf(chaosDraw(copy, kJitterSalt, kNextSlot), 1.0) >=
                     1.0 - p;
  }
  expectBinomial(both_lost, kSends / 2, p * p);
  expectBinomial(both_dup, kSends, p * p);
  expectBinomial(both_late, kSends, p * p);
}

TEST_P(KeyedChaosTest, CopiesOnTwoLinksOfOneSendAreIndependent) {
  const double p = GetParam();
  const std::uint64_t threshold = lossThreshold(p);
  std::uint64_t both = 0;
  for (std::uint32_t i = 0; i < kSends; ++i) {
    const std::uint64_t send = nthSend(i);
    const std::uint64_t a = sendHash(kSeed, copyKey(send, 20));
    const std::uint64_t b = sendHash(kSeed, copyKey(send, 21));
    both += linkDraw(a, 30) < threshold && linkDraw(b, 30) < threshold;
  }
  expectBinomial(both, kSends, p * p);
}

TEST_P(KeyedChaosTest, LossAndDuplicationOfOneCrossingAreIndependent) {
  const double p = GetParam();
  const std::uint64_t threshold = lossThreshold(p);
  std::uint64_t both = 0;
  for (std::uint32_t i = 0; i < kSends; ++i) {
    const std::uint64_t send = nthSend(i);
    both += linkDraw(send, 7) < threshold && duplicates(send, 7, threshold);
  }
  expectBinomial(both, kSends, p * p);
}

INSTANTIATE_TEST_SUITE_P(DuplicationProbs, KeyedChaosTest,
                         ::testing::Values(0.05, 0.3));

TEST(KeyedChaosJitterTest, JitterIsUniformOnZeroToJ) {
  constexpr double kJitter = 2.5;
  for (const std::uint32_t slot : {0u, 9u, 31337u}) {
    double sum = 0.0;
    double lo = kJitter;
    double hi = 0.0;
    for (std::uint32_t i = 0; i < kSends; ++i) {
      const double j = jitterOf(chaosDraw(nthSend(i), kJitterSalt, slot),
                                kJitter);
      sum += j;
      lo = std::min(lo, j);
      hi = std::max(hi, j);
    }
    SCOPED_TRACE(slot);
    EXPECT_GE(lo, 0.0);
    EXPECT_LT(hi, kJitter);
    // Uniform on [0, J): mean J/2, standard deviation J / sqrt(12).
    const double sigma = kJitter / std::sqrt(12.0 * kSends);
    EXPECT_LT(std::abs(sum / kSends - kJitter / 2.0), 5.0 * sigma);
  }
}

TEST(KeyedChaosJitterTest, NetworkJitterStaysInsideItsBound) {
  // Through SimNetwork: a unicast over the 3-hop chain arrives within
  // [base, base + 3J), with mean offset 3J/2.
  constexpr double kJitter = 4.0;
  const net::Topology topo = chain();
  const net::Routing routing(topo.graph);
  Simulator sim;
  SimNetwork network(sim, topo, routing, 0.0, kSeed);
  network.setAllLinksJitterMs(kJitter);
  const double base = routing.distance(0, 3);
  constexpr std::uint32_t kUnicasts = 20000;
  double sum = 0.0;
  std::uint32_t arrived = 0;
  network.setDeliveryHandler([&](net::NodeId, const Packet&) {
    const double offset = sim.now() - base;
    EXPECT_GE(offset, -1e-9);
    EXPECT_LT(offset, 3.0 * kJitter);
    sum += offset;
    ++arrived;
  });
  for (std::uint32_t i = 0; i < kUnicasts; ++i) {
    network.unicast(0, 3, Packet{Packet::Type::kRequest, i, 0, 0, 0});
  }
  sim.run();
  ASSERT_EQ(arrived, kUnicasts);
  const double sigma = kJitter * std::sqrt(3.0 / (12.0 * kUnicasts));
  EXPECT_LT(std::abs(sum / kUnicasts - 1.5 * kJitter), 5.0 * sigma);
}

TEST(KeyedChaosKeyTest, NoCopyKeyReadsAsAPatternKey) {
  for (std::uint32_t i = 0; i < kSends; ++i) {
    const SendKey copy = copyKey(nthSend(i), i % 4096);
    ASSERT_FALSE(isPatternKey(copy)) << i;
    // A copy of a copy too.
    ASSERT_FALSE(isPatternKey(copyKey(sendHash(kSeed, copy), 5))) << i;
  }
}

TEST(KeyedLossKeyTest, PatternKeysNeverNameASend) {
  EXPECT_TRUE(isPatternKey(patternKey(0)));
  EXPECT_EQ(patternOf(patternKey(17)), 17u);
  EXPECT_FALSE(isPatternKey(sendKey(net::kInvalidNode - 1, 0xffffffffu)));
  EXPECT_EQ(lossThreshold(0.0), 0u);
  EXPECT_EQ(lossThreshold(0.5), std::uint64_t{1} << 63);
}

}  // namespace
}  // namespace rmrn::sim
