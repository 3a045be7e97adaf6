// Steady-state allocation-freedom of the coded-repair arm (ISSUE acceptance:
// 0 heap allocations in steady-state decode).  Links the counting allocator
// via the alloc_tests binary.
//
// The GF(256) kernel works on caller-owned flat buffers and global constexpr
// tables; the decoder keeps its rows in fixed in-struct arrays keyed by an
// already-materialized window entry.  After warm-up (window entry created by
// loss detection, first row stored), feeding duplicate/dependent and raced
// rows through the hot onParity path must not touch the heap.
#include <gtest/gtest.h>

#include <cstdint>

#include "protocols/coded_protocol.hpp"
#include "proto_fixture.hpp"
#include "util/alloc_counter.hpp"
#include "util/gf256.hpp"

namespace rmrn::protocols {

// White-box hook mirroring the unit suite's peer (separate binary, so the
// two definitions never meet): drives the private onParity fast path.
struct CodedProtocolTestPeer {
  static void deliverParity(CodedProtocol& p, net::NodeId at,
                            const sim::Packet& packet) {
    p.onParity(at, packet);
  }
  static std::uint32_t rank(const CodedProtocol& p, net::NodeId client,
                            std::uint64_t window) {
    return p.client_units_.at(CodedProtocol::key(client, window))
        ->decoder.rows_used;
  }
};

namespace {

using testutil::ProtoHarness;

TEST(CodedAllocTest, Gf256KernelIsAllocationFree) {
  constexpr std::size_t kRows = 8;
  constexpr std::size_t kCols = kRows + 1;  // augmented
  std::uint8_t matrix[kRows * kCols];
  std::uint8_t x[kRows];
  const std::uint64_t before = util::allocCounts().allocations;
  std::size_t full_rank_solves = 0;
  std::uint32_t inverse_checks = 0;
  for (int round = 0; round < 50; ++round) {
    // Deterministic Vandermonde fill (distinct bases -> full rank).
    for (std::size_t r = 0; r < kRows; ++r) {
      std::uint8_t v = 1;
      const auto base = static_cast<std::uint8_t>(r + 2 + round % 3);
      for (std::size_t c = 0; c < kCols; ++c) {
        matrix[r * kCols + c] = v;
        v = util::gf256::mul(v, base);
      }
    }
    if (util::gf256::solve(matrix, x, kRows) == kRows) ++full_rank_solves;
    for (std::uint8_t a = 1; a != 0; ++a) {
      if (util::gf256::mul(a, util::gf256::inv(a)) == 1) ++inverse_checks;
    }
  }
  const std::uint64_t allocs = util::allocCounts().allocations - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(full_rank_solves, 50u);
  EXPECT_EQ(inverse_checks, 50u * 255u);
}

TEST(CodedAllocTest, SteadyStateDecodePathIsAllocationFree) {
  ProtoHarness h;
  CodedProtocol protocol(h.network, h.metrics, ProtocolConfig{}, CodedConfig{},
                         util::Rng(1).fork(99).next());
  protocol.attach();

  // Warm-up: two losses in window 0 materialize client 3's window entry;
  // run stops before the repair wave lands, so missing stays {0, 1}.
  protocol.sourceMulticast(0, h.lossInto({3}));
  protocol.sourceMulticast(1, h.lossInto({3}));
  h.sim.run(14.0);
  ASSERT_EQ(CodedProtocolTestPeer::rank(protocol, 3, 0), 0u);

  // First synthetic row (rank 0 -> 1) finishes the warm-up: everything the
  // entry will ever hold is an in-struct array.
  const sim::Packet row{sim::Packet::Type::kParity, 0, 0, net::kInvalidNode,
                        sim::makeCodedTag(70, 2)};
  CodedProtocolTestPeer::deliverParity(protocol, 3, row);
  ASSERT_EQ(CodedProtocolTestPeer::rank(protocol, 3, 0), 1u);

  // Steady state: the identical row re-delivered reduces to zero by algebra
  // (dependent drop) on in-struct arrays and stack scratch — heap-silent.
  const std::uint64_t before = util::allocCounts().allocations;
  for (int i = 0; i < 500; ++i) {
    CodedProtocolTestPeer::deliverParity(protocol, 3, row);
  }
  const std::uint64_t allocs = util::allocCounts().allocations - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(CodedProtocolTestPeer::rank(protocol, 3, 0), 1u);
  EXPECT_EQ(protocol.dependentRowsDropped(), 500u);
}

}  // namespace
}  // namespace rmrn::protocols
