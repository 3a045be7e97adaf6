// RpPlanner::replanExcluding — the failover path (DESIGN.md §9) must emit
// exactly the plan a fresh planner banning the blacklisted peers would, and
// the exclusion-aware auditor must referee it.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/auditor.hpp"
#include "core/planner.hpp"
#include "core/shard_planner.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace rmrn::core {
namespace {

struct Rig {
  net::Topology topo;
  net::Routing routing;
  RpPlanner planner;

  explicit Rig(std::uint64_t seed = 3, std::uint32_t n = 80)
      : topo(make(seed, n)), routing(topo.graph), planner(topo, routing, {}) {}

  static net::Topology make(std::uint64_t seed, std::uint32_t n) {
    util::Rng rng(seed);
    net::TopologyConfig config;
    config.num_nodes = n;
    return net::generateTopology(config, rng);
  }

  // First client whose optimal list is non-empty (so there is a peer to
  // blacklist), plus that leading peer.
  [[nodiscard]] std::pair<net::NodeId, net::NodeId> victimAndPeer() const {
    for (const net::NodeId u : topo.clients) {
      const auto& peers = planner.strategyFor(u).peers;
      if (!peers.empty()) return {u, peers.front().peer};
    }
    ADD_FAILURE() << "no client with a non-empty strategy";
    return {net::kInvalidNode, net::kInvalidNode};
  }
};

void expectSameStrategy(const Strategy& got, const Strategy& want) {
  EXPECT_EQ(got.peers, want.peers);
  EXPECT_DOUBLE_EQ(got.expected_delay_ms, want.expected_delay_ms);
}

TEST(ReplanExcludingTest, EmptyBlacklistReproducesPrecomputedPlans) {
  const Rig rig;
  for (const net::NodeId u : rig.topo.clients) {
    expectSameStrategy(rig.planner.replanExcluding(u, {}),
                       rig.planner.strategyFor(u));
  }
}

TEST(ReplanExcludingTest, MatchesFreshPlannerWithExcludedPeers) {
  const Rig rig;
  const auto [u, dead] = rig.victimAndPeer();
  ASSERT_NE(u, net::kInvalidNode);

  PlannerOptions banned;
  banned.excluded_peers = {dead};
  const RpPlanner reference(rig.topo, rig.routing, banned);
  const std::vector<net::NodeId> blacklist{dead};
  expectSameStrategy(rig.planner.replanExcluding(u, blacklist),
                     reference.strategyFor(u));
  // Other clients replan identically too: the pruned server set is the same.
  for (const net::NodeId v : rig.topo.clients) {
    if (v == dead) continue;
    expectSameStrategy(rig.planner.replanExcluding(v, blacklist),
                       reference.strategyFor(v));
  }
}

TEST(ReplanExcludingTest, MatchesSingleShardPlannerAfterLeave) {
  // A blacklisted (crashed) peer and a departed group member prune the same
  // server: the failover replan and the membership-churn path (a one-shard
  // ShardPlanner, exact on any routing) must agree.
  const Rig rig;
  const auto [u, dead] = rig.victimAndPeer();
  ASSERT_NE(u, net::kInvalidNode);

  ShardPlannerOptions options;
  options.planner.timeout_ms = rig.planner.timeoutMs();  // same resolved t_0
  options.max_shard_clients = std::numeric_limits<std::uint32_t>::max();
  ShardPlanner churned(rig.topo, rig.routing, options);
  churned.removeClient(dead);
  const std::vector<net::NodeId> blacklist{dead};
  expectSameStrategy(rig.planner.replanExcluding(u, blacklist),
                     churned.strategyFor(u));
}

TEST(ReplanExcludingTest, ReplanSurvivesTheExclusionAudit) {
  const Rig rig;
  const auto [u, dead] = rig.victimAndPeer();
  ASSERT_NE(u, net::kInvalidNode);

  const PlanAuditor auditor(rig.topo, rig.routing);
  const AuditOptions options = AuditOptions::fromPlanner(rig.planner);
  const std::vector<net::NodeId> blacklist{dead};
  const Strategy replanned = rig.planner.replanExcluding(u, blacklist);
  const AuditReport report =
      auditor.auditStrategyExcluding(u, replanned, options, blacklist);
  EXPECT_TRUE(report.ok()) << report.summary();

  // The ORIGINAL plan keeps the now-banned peer on the list: the exclusion
  // audit must flag it.
  const AuditReport stale = auditor.auditStrategyExcluding(
      u, rig.planner.strategyFor(u), options, blacklist);
  ASSERT_FALSE(stale.ok());
  bool saw_excluded = false;
  for (const auto& violation : stale.violations) {
    if (violation.code == ViolationCode::kExcludedPeerOnList) {
      saw_excluded = true;
    }
  }
  EXPECT_TRUE(saw_excluded) << stale.summary();
}

TEST(ReplanExcludingTest, BlacklistingEveryPeerFallsBackToSource) {
  const Rig rig;
  const auto [u, dead] = rig.victimAndPeer();
  ASSERT_NE(u, net::kInvalidNode);
  (void)dead;

  std::vector<net::NodeId> everyone;
  for (const net::NodeId v : rig.topo.clients) {
    if (v != u) everyone.push_back(v);
  }
  const Strategy lonely = rig.planner.replanExcluding(u, everyone);
  EXPECT_TRUE(lonely.peers.empty());
  // The empty list is the trivial [S] plan: wait for the source directly.
  EXPECT_GT(lonely.expected_delay_ms, 0.0);
}

TEST(ReplanExcludingTest, RejectsNonClient) {
  const Rig rig;
  EXPECT_THROW((void)rig.planner.replanExcluding(rig.topo.source, {}),
               std::out_of_range);
}

}  // namespace
}  // namespace rmrn::core
