// Parallel whole-group planning must be bit-identical to the sequential
// path: every client's strategy (peer list, DS values, RTTs) and
// expected_delay_ms, for any thread count, including planning against a
// sparse routing table.
#include <gtest/gtest.h>

#include <vector>

#include "core/auditor.hpp"
#include "core/planner.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace rmrn::core {
namespace {

net::Topology makeTopology(std::uint64_t seed, std::uint32_t n) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = n;
  return net::generateTopology(config, rng);
}

void expectIdenticalPlans(const net::Topology& topo, const RpPlanner& a,
                          const RpPlanner& b) {
  ASSERT_DOUBLE_EQ(a.timeoutMs(), b.timeoutMs());
  for (const net::NodeId u : topo.clients) {
    const Strategy& sa = a.strategyFor(u);
    const Strategy& sb = b.strategyFor(u);
    // Bit-identical, not just close: same arithmetic must have run.
    EXPECT_EQ(sa.expected_delay_ms, sb.expected_delay_ms) << "client " << u;
    EXPECT_EQ(sa.peers, sb.peers) << "client " << u;
    EXPECT_EQ(a.candidatesFor(u), b.candidatesFor(u)) << "client " << u;
  }
}

// Bit-identical plans could still be identically wrong: referee the
// multi-threaded planner's output against the independent PlanAuditor so
// parallel plans are proven lemma-valid, not just equal to sequential ones.
void expectLemmaValidPlans(const net::Topology& topo,
                           const net::Routing& routing,
                           const RpPlanner& planner) {
  const PlanAuditor auditor(topo, routing);
  const AuditReport report = auditor.auditPlanner(planner);
  EXPECT_TRUE(report.ok()) << report.summary();
}

class PlannerParallelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerParallelTest, ParallelMatchesSequentialBitForBit) {
  const net::Topology topo = makeTopology(GetParam(), 120);
  const net::Routing routing(topo.graph);

  PlannerOptions sequential_options;
  sequential_options.per_peer_timeout_factor = 1.5;
  sequential_options.num_threads = 1;
  const RpPlanner sequential(topo, routing, sequential_options);

  for (const unsigned threads : {2u, 4u, 0u}) {  // 0 = hardware concurrency
    PlannerOptions parallel_options = sequential_options;
    parallel_options.num_threads = threads;
    const RpPlanner parallel(topo, routing, parallel_options);
    expectIdenticalPlans(topo, sequential, parallel);
    expectLemmaValidPlans(topo, routing, parallel);
  }
}

TEST_P(PlannerParallelTest, SparseRoutingMatchesDense) {
  const net::Topology topo = makeTopology(GetParam() + 1000, 100);
  const net::Routing dense(topo.graph);
  const net::Routing sparse(topo.graph, topo.agents(), 2u);

  PlannerOptions options;
  options.num_threads = 4;
  const RpPlanner from_dense(topo, dense, options);
  const RpPlanner from_sparse(topo, sparse, options);
  expectIdenticalPlans(topo, from_dense, from_sparse);
  expectLemmaValidPlans(topo, sparse, from_sparse);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerParallelTest,
                         ::testing::Values(71, 72, 73, 74));

TEST(PlannerParallelTest, DefaultTimeoutIndependentOfThreads) {
  const net::Topology topo = makeTopology(99, 80);
  const net::Routing routing(topo.graph);
  PlannerOptions one;
  one.num_threads = 1;
  PlannerOptions many;
  many.num_threads = 8;
  const RpPlanner a(topo, routing, one);
  const RpPlanner b(topo, routing, many);
  EXPECT_EQ(a.timeoutMs(), b.timeoutMs());
  expectIdenticalPlans(topo, a, b);
  expectLemmaValidPlans(topo, routing, b);
}

TEST(PlannerParallelTest, ExclusionsApplyUnderParallelism) {
  const net::Topology topo = makeTopology(55, 90);
  const net::Routing routing(topo.graph);
  PlannerOptions options;
  options.num_threads = 4;
  options.excluded_peers = {topo.clients.front(), topo.clients.back()};
  const RpPlanner planner(topo, routing, options);
  for (const net::NodeId u : topo.clients) {
    for (const Candidate& c : planner.strategyFor(u).peers) {
      EXPECT_NE(c.peer, topo.clients.front());
      EXPECT_NE(c.peer, topo.clients.back());
    }
  }
  expectLemmaValidPlans(topo, routing, planner);
}

}  // namespace
}  // namespace rmrn::core
