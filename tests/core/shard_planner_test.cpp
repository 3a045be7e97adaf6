#include "core/shard_planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/planner.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace rmrn::core {
namespace {

using net::NodeId;

// On a pure-tree backbone with tree-metric routing, RTT order within a
// competitive class equals source-RTT order, so the per-shard representative
// is the exact flat-planner winner and the sharded plans must be identical —
// bit for bit — to RpPlanner's, at every shard budget.
class ShardTreeExactTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardTreeExactTest, MatchesFlatPlannerExactly) {
  util::Rng rng(GetParam());
  const net::Topology topo = net::generateTreeTopology(400, rng);
  const net::Routing routing(topo.graph, topo.tree);

  const RpPlanner flat(topo, routing, PlannerOptions{});
  for (const std::uint32_t k : {2u, 8u, 32u, 100000u}) {
    ShardPlannerOptions options;
    options.max_shard_clients = k;
    const ShardPlanner sharded(topo, routing, options);
    EXPECT_EQ(sharded.timeoutMs(), flat.timeoutMs());
    for (const NodeId u : topo.clients) {
      ASSERT_EQ(sharded.candidatesFor(u), flat.candidatesFor(u))
          << "client " << u << " K=" << k;
      const Strategy& s = sharded.strategyFor(u);
      const Strategy& f = flat.strategyFor(u);
      EXPECT_EQ(s.peers, f.peers) << "client " << u << " K=" << k;
      EXPECT_EQ(s.expected_delay_ms, f.expected_delay_ms)
          << "client " << u << " K=" << k;
    }
  }
}

TEST_P(ShardTreeExactTest, RestrictedOptionsStillMatchFlat) {
  util::Rng rng(GetParam() * 31 + 5);
  const net::Topology topo = net::generateTreeTopology(300, rng);
  const net::Routing routing(topo.graph, topo.tree);

  PlannerOptions base;
  base.max_list_length = 2;
  base.allow_direct_source = false;
  base.per_peer_timeout_factor = 3.0;
  base.excluded_peers = {topo.clients[1], topo.clients[4], topo.clients[7]};

  const RpPlanner flat(topo, routing, base);
  ShardPlannerOptions options;
  options.planner = base;
  options.max_shard_clients = 6;
  const ShardPlanner sharded(topo, routing, options);
  for (const NodeId u : topo.clients) {
    ASSERT_EQ(sharded.candidatesFor(u), flat.candidatesFor(u));
    EXPECT_EQ(sharded.strategyFor(u).peers, flat.strategyFor(u).peers);
    EXPECT_EQ(sharded.strategyFor(u).expected_delay_ms,
              flat.strategyFor(u).expected_delay_ms);
    for (const NodeId banned : base.excluded_peers) {
      for (const Candidate& c : sharded.strategyFor(u).peers) {
        EXPECT_NE(c.peer, banned);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardTreeExactTest,
                         ::testing::Values(3u, 77u, 2024u));

// The largest budget: one shard, whatever the group size.
constexpr std::uint32_t kOneShard = std::numeric_limits<std::uint32_t>::max();

// With a budget that swallows the whole group, the partition degenerates to
// one shard whose consideration set is every client — so the plans and the
// resolved timeout must equal the flat planner's on arbitrary graph
// backbones too, with a fixed t_0 or RTT-scaled per-peer waits.
void expectSingleShardEqualsFlat(std::uint64_t seed, std::uint32_t nodes,
                                 std::uint32_t budget,
                                 double per_peer_timeout_factor) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = nodes;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);

  ShardPlannerOptions options;
  options.planner.per_peer_timeout_factor = per_peer_timeout_factor;
  options.max_shard_clients = budget;
  const RpPlanner flat(topo, routing, options.planner);
  const ShardPlanner sharded(topo, routing, options);
  ASSERT_EQ(sharded.partition().numShards(), 1u);
  EXPECT_EQ(sharded.timeoutMs(), flat.timeoutMs());
  EXPECT_EQ(sharded.resolvedOptions().planner.timeout_ms, flat.timeoutMs());
  for (const NodeId u : topo.clients) {
    ASSERT_EQ(sharded.candidatesFor(u), flat.candidatesFor(u))
        << "client " << u;
    EXPECT_EQ(sharded.strategyFor(u).peers, flat.strategyFor(u).peers)
        << "client " << u;
    EXPECT_EQ(sharded.strategyFor(u).expected_delay_ms,
              flat.strategyFor(u).expected_delay_ms)
        << "client " << u;
  }
}

TEST(ShardPlannerTest, SingleShardEqualsFlatOnGraphs) {
  expectSingleShardEqualsFlat(4242, 150, 1u << 30, 0.0);
}

// The one-shard ShardPlanner is the incremental (formerly "dynamic") planner
// for general-graph groups; these keep its two initial-plan checks by name.
TEST(DynamicPlannerTest, InitialPlanMatchesRpPlanner) {
  expectSingleShardEqualsFlat(1, 80, kOneShard, 1.5);
}

TEST(DynamicPlannerTest, ResolvedTimeoutMatchesRpPlannerDefault) {
  expectSingleShardEqualsFlat(2, 80, kOneShard, 0.0);
}

// On general graphs the representative choice is an approximation: plans
// must audit clean against their restricted peer sets and stay close to the
// flat optimum (never below it — the flat planner optimizes over a superset).
TEST(ShardPlannerTest, GraphModeAuditsCleanAndStaysNearFlatOptimum) {
  for (const std::uint64_t seed : {9u, 123u, 777u}) {
    util::Rng rng(seed);
    net::TopologyConfig config;
    config.num_nodes = 180;
    const net::Topology topo = net::generateTopology(config, rng);
    const net::Routing routing(topo.graph);

    const RpPlanner flat(topo, routing, PlannerOptions{});
    ShardPlannerOptions options;
    options.max_shard_clients = 8;
    const ShardPlanner sharded(topo, routing, options);

    const AuditReport report = sharded.auditAll();
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.clients_checked, topo.clients.size());

    double sharded_total = 0.0;
    double flat_total = 0.0;
    for (const NodeId u : topo.clients) {
      const double s = sharded.strategyFor(u).expected_delay_ms;
      const double f = flat.strategyFor(u).expected_delay_ms;
      EXPECT_GE(s, f * (1.0 - 1e-9));
      sharded_total += s;
      flat_total += f;
    }
    // Documented optimality ratio (README "Scaling"): on random graphs the
    // representative approximation costs a few percent of *group* expected
    // delay (individual clients can fare worse when their flat optimum was
    // a cheap cross-shard peer).  Measured: 1.000-1.037 across these
    // seeds; 1.15 is a loose regression ceiling.
    EXPECT_LE(sharded_total, flat_total * 1.15);
  }
}

TEST(ShardPlannerTest, ParallelBuildIsBitIdentical) {
  util::Rng rng(2718);
  const net::Topology topo = net::generateTreeTopology(500, rng);
  const net::Routing routing(topo.graph, topo.tree);

  ShardPlannerOptions seq;
  seq.max_shard_clients = 10;
  seq.planner.num_threads = 1;
  ShardPlannerOptions par = seq;
  par.planner.num_threads = 0;  // hardware concurrency

  const ShardPlanner a(topo, routing, seq);
  const ShardPlanner b(topo, routing, par);
  for (const NodeId u : topo.clients) {
    ASSERT_EQ(a.candidatesFor(u), b.candidatesFor(u));
    EXPECT_EQ(a.strategyFor(u).expected_delay_ms,
              b.strategyFor(u).expected_delay_ms);
  }
}

TEST(ShardPlannerTest, ConsideredPeersCoverShardAndRepresentatives) {
  util::Rng rng(55);
  const net::Topology topo = net::generateTreeTopology(300, rng);
  const net::Routing routing(topo.graph, topo.tree);
  ShardPlannerOptions options;
  options.max_shard_clients = 5;
  const ShardPlanner sharded(topo, routing, options);
  ASSERT_GT(sharded.partition().numShards(), 1u);

  for (const NodeId u : topo.clients) {
    const std::vector<NodeId> peers = sharded.consideredPeersFor(u);
    // Every shard sibling is considered directly.
    const std::uint32_t sid = sharded.partition().shardOf(u);
    for (const NodeId w : sharded.partition().shard(sid).clients) {
      EXPECT_TRUE(std::find(peers.begin(), peers.end(), w) != peers.end());
    }
    // Every emitted peer was on the consideration list.
    for (const Candidate& c : sharded.strategyFor(u).peers) {
      EXPECT_TRUE(std::find(peers.begin(), peers.end(), c.peer) !=
                  peers.end());
    }
    // The consideration set is tiny compared to the group.
    EXPECT_LT(peers.size(), topo.clients.size());
  }
}

TEST(ShardPlannerTest, CtorAuditOptionPassesOnCleanBuild) {
  util::Rng rng(8);
  net::TopologyConfig config;
  config.num_nodes = 100;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);
  ShardPlannerOptions options;
  options.max_shard_clients = 6;
  options.planner.audit = true;
  EXPECT_NO_THROW(ShardPlanner(topo, routing, options));
}

TEST(ShardPlannerTest, UnknownClientThrows) {
  util::Rng rng(16);
  const net::Topology topo = net::generateTreeTopology(100, rng);
  const net::Routing routing(topo.graph, topo.tree);
  ShardPlannerOptions options;
  const ShardPlanner sharded(topo, routing, options);
  EXPECT_THROW((void)sharded.strategyFor(topo.source), std::out_of_range);
  EXPECT_THROW((void)sharded.candidatesFor(net::NodeId{999999}),
               std::out_of_range);
  ShardPlannerOptions negative_timeout;
  negative_timeout.planner.timeout_ms = -1.0;
  negative_timeout.max_shard_clients = 8;
  EXPECT_THROW(ShardPlanner(topo, routing, negative_timeout),
               std::invalid_argument);
}

// Membership input is checked in every build (no RMRN_AUDIT needed): a
// rejected operation throws std::invalid_argument and changes nothing.
TEST(ShardPlannerTest, ValidatesMembershipOperations) {
  util::Rng rng(6);
  net::TopologyConfig config;
  config.num_nodes = 80;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);
  EXPECT_THROW(ShardPlanner(topo, routing, ShardPlannerOptions{{}, 0}),
               std::invalid_argument);

  for (const std::uint32_t budget : {4u, kOneShard}) {
    SCOPED_TRACE(budget);
    ShardPlannerOptions options;
    options.max_shard_clients = budget;
    ShardPlanner planner(topo, routing, options);
    const std::vector<NodeId> members = planner.currentClients();
    const NodeId first = topo.clients.front();
    EXPECT_THROW(planner.addClient(topo.source), std::invalid_argument);
    EXPECT_THROW(planner.addClient(first), std::invalid_argument);
    EXPECT_THROW(planner.addClient(NodeId{100000}), std::invalid_argument);
    EXPECT_EQ(planner.currentClients(), members);

    planner.removeClient(first);
    EXPECT_THROW(planner.removeClient(first), std::invalid_argument);
    EXPECT_THROW(planner.removeClient(topo.source), std::invalid_argument);
    EXPECT_EQ(planner.numClients(), members.size() - 1);
    planner.addClient(first);
    EXPECT_EQ(planner.currentClients(), members);
  }
}

}  // namespace
}  // namespace rmrn::core
