// Steady-state allocation-freedom of sharded replanning (DESIGN.md §11):
// once the per-shard arenas, partition scratch and candidate/strategy
// buffers are warmed, membership churn must not touch the heap.
//
// Linked into alloc_tests, whose binary replaces the global allocation
// operators with counting wrappers (src/util/alloc_counter.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/shard_planner.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace rmrn::core {
namespace {

class ShardChurnAllocTest : public ::testing::Test {
 protected:
  ShardChurnAllocTest() {
    util::Rng rng(6011);
    topo_ = net::generateTreeTopology(600, rng);
    // Tree-metric routing: closed-form RTTs, so no routing query can
    // allocate mid-churn.
    routing_ = std::make_unique<net::Routing>(topo_.graph, topo_.tree);
    ShardPlannerOptions options;
    options.planner.timeout_ms = 100.0;  // fixed across churn
    options.max_shard_clients = 8;
    planner_ = std::make_unique<ShardPlanner>(topo_, *routing_, options);
  }

  template <typename Workload>
  std::uint64_t steadyStateAllocations(Workload&& workload) {
    for (int round = 0; round < 10; ++round) workload();
    const std::uint64_t before = util::allocCounts().allocations;
    workload();
    return util::allocCounts().allocations - before;
  }

  net::Topology topo_;
  std::unique_ptr<net::Routing> routing_;
  std::unique_ptr<ShardPlanner> planner_;
};

TEST_F(ShardChurnAllocTest, SteadyStateChurnIsAllocationFree) {
  // Cycle a fixed slice of the group out and back in.  The slice is big
  // enough to cross shard boundaries, so splits, merges and representative
  // promotions all recur each round — after warm-up every path must run out
  // of reused arenas.
  std::vector<net::NodeId> slice(topo_.clients.begin(),
                                 topo_.clients.begin() + 40);
  const auto allocs = steadyStateAllocations([this, &slice] {
    for (const net::NodeId v : slice) {
      planner_->removeClient(v);
      planner_->addClient(v);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(planner_->numClients(), topo_.clients.size());
}

TEST_F(ShardChurnAllocTest, BatchLeaveThenRejoinIsAllocationFree) {
  // Deeper membership swings: drain a whole slice, then rebuild it.  The
  // first rounds grow the partition's merge scratch and the planner's
  // importer tables to their high-water marks; afterwards nothing allocates.
  std::vector<net::NodeId> slice(topo_.clients.begin(),
                                 topo_.clients.begin() + 25);
  const auto allocs = steadyStateAllocations([this, &slice] {
    for (const net::NodeId v : slice) planner_->removeClient(v);
    for (const net::NodeId v : slice) planner_->addClient(v);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST_F(ShardChurnAllocTest, CrownChurnIsAllocationFree) {
  // The client closest to the source is every importer's representative at
  // its depth: removing it hands each importer's class to a successor found
  // by the anchor-path fold, re-adding it patches that class back.
  net::NodeId crown = topo_.clients.front();
  for (const net::NodeId c : topo_.clients) {
    if (routing_->rtt(c, topo_.source) < routing_->rtt(crown, topo_.source)) {
      crown = c;
    }
  }
  const auto allocs = steadyStateAllocations([this, crown] {
    planner_->removeClient(crown);
    EXPECT_GT(planner_->lastShardsTouched(), 1u);
    planner_->addClient(crown);
  });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace rmrn::core
