// PlanAuditor: clean plans must audit clean on hand-built and random
// topologies under every planner option; each hand-crafted corruption must
// come back with its own distinct violation code.
#include "core/auditor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/planner.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace rmrn::core {
namespace {

// The protocol fixture's 9-node topology (see tests/protocols/
// proto_fixture.hpp); re-built here so core tests stay independent of the
// protocols tree.  Clients {3, 4, 7, 8}; for u = 3 the competitive classes
// are {4} at DS 2 and {7, 8} at DS 1 with rtt(3,7) = 12 < rtt(3,8) = 14,
// and rtt(3, source) = 6 — cheap enough that the optimal plan for 3 is the
// empty list (direct source).
net::Topology fixtureTopology() {
  net::Topology t;
  t.graph = net::Graph(9);
  t.graph.addEdge(0, 1, 1.0);
  t.graph.addEdge(1, 2, 1.0);
  t.graph.addEdge(1, 5, 2.0);
  t.graph.addEdge(2, 3, 1.0);
  t.graph.addEdge(2, 4, 4.0);
  t.graph.addEdge(5, 6, 1.0);
  t.graph.addEdge(6, 7, 1.0);
  t.graph.addEdge(6, 8, 2.0);
  std::vector<net::NodeId> parent(9, net::kInvalidNode);
  parent[1] = 0;
  parent[2] = 1;
  parent[5] = 1;
  parent[3] = 2;
  parent[4] = 2;
  parent[6] = 5;
  parent[7] = 6;
  parent[8] = 6;
  t.tree = net::MulticastTree(0, std::move(parent));
  t.source = 0;
  t.clients = {3, 4, 7, 8};
  return t;
}

// Deep-chain topology (see proto_fixture.hpp) where peer recovery strictly
// beats the source: for u = 3 with t_0 = 12 the optimal strategy is exactly
// [4] (ds 1, rtt 6) and rtt(3, source) = 24.  The planner-derived baseline
// for the bookkeeping-corruption tests comes from here, because on the
// shallow fixture the optimal list is empty.
net::Topology deepTopology() {
  net::Topology t;
  t.graph = net::Graph(6);
  t.graph.addEdge(0, 1, 10.0);
  t.graph.addEdge(1, 2, 1.0);
  t.graph.addEdge(2, 3, 1.0);
  t.graph.addEdge(1, 4, 1.0);
  t.graph.addEdge(2, 5, 1.0);
  std::vector<net::NodeId> parent(6, net::kInvalidNode);
  parent[1] = 0;
  parent[2] = 1;
  parent[3] = 2;
  parent[4] = 1;
  parent[5] = 2;
  t.tree = net::MulticastTree(0, std::move(parent));
  t.source = 0;
  t.clients = {3, 4, 5};
  return t;
}

net::Topology randomTopology(std::uint64_t seed, std::uint32_t n) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = n;
  return net::generateTopology(config, rng);
}

bool hasCode(const AuditReport& report, ViolationCode code) {
  return std::any_of(
      report.violations.begin(), report.violations.end(),
      [code](const Violation& v) { return v.code == code; });
}

// Bundles a topology with dense routing and an auditor over both.
struct Env {
  net::Topology topo;
  net::Routing routing;
  PlanAuditor auditor;

  explicit Env(net::Topology t)
      : topo(std::move(t)), routing(topo.graph), auditor(topo, routing) {}
};

AuditOptions fixtureOptions(double timeout_ms = 12.0) {
  AuditOptions options;
  options.timeout_ms = timeout_ms;
  return options;
}

// Planner-derived clean baseline on the deep topology: strategy [4] for
// client 3, plus the matching audit options.
struct DeepBaseline {
  Env env;
  RpPlanner planner;
  AuditOptions options;
  Strategy strategy;

  DeepBaseline()
      : env(deepTopology()),
        planner(env.topo, env.routing,
                [] {
                  PlannerOptions po;
                  po.timeout_ms = 12.0;
                  return po;
                }()),
        options(AuditOptions::fromPlanner(planner)),
        strategy(planner.strategyFor(3)) {}
};

// ---------------------------------------------------------------- positive

TEST(PlanAuditorTest, CleanPlannerAuditsCleanOnFixture) {
  Env env(fixtureTopology());
  const RpPlanner planner(env.topo, env.routing, {});
  const AuditReport report = env.auditor.auditPlanner(planner);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.clients_checked, env.topo.clients.size());
}

TEST(PlanAuditorTest, CleanPlannerAuditsCleanOnDeepTopology) {
  DeepBaseline base;
  const AuditReport report = base.env.auditor.auditPlanner(base.planner);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Premise for the corruption tests below: a non-empty, single-peer plan.
  ASSERT_EQ(base.strategy.peers.size(), 1u);
  EXPECT_EQ(base.strategy.peers[0].peer, 4u);
}

TEST(PlanAuditorTest, CleanPlannerAuditsCleanOnRandomTopologies) {
  for (const std::uint64_t seed : {1u, 7u, 21u, 42u}) {
    Env env(randomTopology(seed, 120));
    PlannerOptions options;
    options.per_peer_timeout_factor = 1.5;
    const RpPlanner planner(env.topo, env.routing, options);
    const AuditReport report = env.auditor.auditPlanner(planner);
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.summary();
  }
}

TEST(PlanAuditorTest, CleanUnderEveryCostModelAndRestriction) {
  Env env(randomTopology(5, 80));
  for (const CostModel model :
       {CostModel::kExpected, CostModel::kTimeoutOnly, CostModel::kRttOnly}) {
    PlannerOptions options;
    options.cost_model = model;
    options.max_list_length = 2;
    options.excluded_peers = {env.topo.clients.front()};
    const RpPlanner planner(env.topo, env.routing, options);
    const AuditReport report = env.auditor.auditPlanner(planner);
    EXPECT_TRUE(report.ok()) << toString(model) << "\n" << report.summary();
  }
}

TEST(PlanAuditorTest, CleanWithDirectSourceDisallowed) {
  Env env(fixtureTopology());
  PlannerOptions options;
  options.allow_direct_source = false;
  const RpPlanner planner(env.topo, env.routing, options);
  const AuditReport report = env.auditor.auditPlanner(planner);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PlanAuditorTest, PlannerAuditOptionAcceptsCleanPlans) {
  Env env(fixtureTopology());
  PlannerOptions options;
  options.audit = true;  // referee inside the constructor
  EXPECT_NO_THROW(RpPlanner(env.topo, env.routing, options));
}

TEST(PlanAuditorTest, AuditWorksAgainstSparseRouting) {
  net::Topology topo = randomTopology(9, 100);
  const net::Routing sparse(topo.graph, topo.agents());
  const RpPlanner planner(topo, sparse, {});
  const PlanAuditor auditor(topo, sparse);
  const AuditReport report = auditor.auditPlanner(planner);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PlanAuditorTest, RecomputeDelayMatchesReportedForAllClients) {
  Env env(randomTopology(3, 100));
  PlannerOptions planner_options;
  planner_options.per_peer_timeout_factor = 1.5;
  const RpPlanner planner(env.topo, env.routing, planner_options);
  const AuditOptions options = AuditOptions::fromPlanner(planner);
  for (const net::NodeId u : env.topo.clients) {
    const Strategy& s = planner.strategyFor(u);
    const double recomputed = env.auditor.recomputeDelay(u, s.peers, options);
    EXPECT_NEAR(recomputed, s.expected_delay_ms,
                1e-6 * std::max(1.0, s.expected_delay_ms))
        << "client " << u;
  }
}

// ---------------------------------------------------------------- negative
//
// Each corruption seeds exactly the defect its violation code names; the
// assertions use hasCode because one corruption may legitimately trip
// secondary checks too (e.g. an out-of-order list is also suboptimal).

TEST(PlanAuditorTest, DetectsDsOutOfOrder) {
  Env env(fixtureTopology());
  const AuditOptions options = fixtureOptions();
  // Ascending DS: peer 7 (DS 1) before peer 4 (DS 2) — Lemma 5 violation.
  Strategy s;
  s.peers = {{7, 1, env.routing.rtt(3, 7)}, {4, 2, env.routing.rtt(3, 4)}};
  s.expected_delay_ms = env.auditor.recomputeDelay(3, s.peers, options);
  const AuditReport report = env.auditor.auditStrategy(3, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kDsNotDescending))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsDuplicateCompetitiveClients) {
  Env env(fixtureTopology());
  const AuditOptions options = fixtureOptions();
  // Peers 7 and 8 share first common router 1 — Lemma 4 violation.
  Strategy s;
  s.peers = {{7, 1, env.routing.rtt(3, 7)}, {8, 1, env.routing.rtt(3, 8)}};
  s.expected_delay_ms = env.auditor.recomputeDelay(3, s.peers, options);
  const AuditReport report = env.auditor.auditStrategy(3, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kDuplicateCompetitiveClass))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsWrongDelay) {
  DeepBaseline base;
  Strategy s = base.strategy;
  s.expected_delay_ms *= 1.25;  // plausible but wrong
  const AuditReport report = base.env.auditor.auditStrategy(3, s, base.options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kDelayMismatch))
      << report.summary();
  EXPECT_FALSE(hasCode(report, ViolationCode::kSuboptimalVsSource));
}

TEST(PlanAuditorTest, DetectsDsBookkeepingMismatch) {
  DeepBaseline base;
  Strategy s = base.strategy;
  ASSERT_FALSE(s.peers.empty());
  s.peers[0].ds += 1;  // recorded DS no longer the first common router depth
  const AuditReport report = base.env.auditor.auditStrategy(3, s, base.options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kDsMismatch))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsRttBookkeepingMismatch) {
  DeepBaseline base;
  Strategy s = base.strategy;
  ASSERT_FALSE(s.peers.empty());
  s.peers[0].rtt_ms += 0.5;  // recorded RTT drifts from the routing tables
  const AuditReport report = base.env.auditor.auditStrategy(3, s, base.options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kRttMismatch))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsNonMinimalClassMember) {
  Env env(fixtureTopology());
  const AuditOptions options = fixtureOptions();
  // Peer 8 shares class (router 1) with peer 7, which is strictly cheaper.
  Strategy s;
  s.peers = {{8, 1, env.routing.rtt(3, 8)}};
  s.expected_delay_ms = env.auditor.recomputeDelay(3, s.peers, options);
  const AuditReport report = env.auditor.auditStrategy(3, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kNotMinRttInClass))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsSelfOnList) {
  Env env(fixtureTopology());
  const AuditOptions options = fixtureOptions();
  Strategy s;
  s.peers = {{3, 1, 0.0}};
  s.expected_delay_ms = env.routing.rtt(3, 0);
  const AuditReport report = env.auditor.auditStrategy(3, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kPeerIsSelf))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsSourceOnList) {
  Env env(fixtureTopology());
  const AuditOptions options = fixtureOptions();
  Strategy s;
  s.peers = {{0, 1, env.routing.rtt(3, 0)}};
  s.expected_delay_ms = env.routing.rtt(3, 0);
  const AuditReport report = env.auditor.auditStrategy(3, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kSourceOnList))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsPeerOutsideTree) {
  Env env(fixtureTopology());
  const AuditOptions options = fixtureOptions();
  Strategy s;
  s.peers = {{100, 1, 5.0}};
  s.expected_delay_ms = env.routing.rtt(3, 0);
  const AuditReport report = env.auditor.auditStrategy(3, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kPeerNotInTree))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsNonClientPeer) {
  Env env(fixtureTopology());
  const AuditOptions options = fixtureOptions();
  // Node 5 is a router on the tree, not a protected client.
  Strategy s;
  s.peers = {{5, 1, env.routing.rtt(3, 5)}};
  s.expected_delay_ms = env.auditor.recomputeDelay(3, s.peers, options);
  const AuditReport report = env.auditor.auditStrategy(3, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kPeerNotAClient))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsUselessSubtreePeer) {
  // Audit a strategy owned by internal node 6: its child 7 is surely
  // loss-correlated (the first common router is 6 itself), so listing it is
  // useless.  Leaf clients cannot exhibit this defect — their subtrees are
  // empty — hence the internal owner.
  Env env(fixtureTopology());
  const AuditOptions options = fixtureOptions();
  Strategy s;
  s.peers = {{7, 3, env.routing.rtt(6, 7)}};
  s.expected_delay_ms = env.routing.rtt(6, 0);
  const AuditReport report = env.auditor.auditStrategy(6, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kUselessPeer))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsExcludedPeer) {
  DeepBaseline base;
  ASSERT_FALSE(base.strategy.peers.empty());
  ASSERT_EQ(base.strategy.peers[0].peer, 4u);
  AuditOptions options = base.options;
  options.excluded_peers = {4};  // ban the peer the plan relies on
  const AuditReport report =
      base.env.auditor.auditStrategy(3, base.strategy, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kExcludedPeerOnList))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsOverlongList) {
  DeepBaseline base;
  ASSERT_FALSE(base.strategy.peers.empty());
  AuditOptions options = base.options;
  options.max_list_length = 0;
  const AuditReport report =
      base.env.auditor.auditStrategy(3, base.strategy, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kListTooLong))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsForbiddenEmptyList) {
  Env env(fixtureTopology());
  AuditOptions options = fixtureOptions();
  options.allow_direct_source = false;
  Strategy s;
  s.expected_delay_ms = env.routing.rtt(3, 0);
  const AuditReport report = env.auditor.auditStrategy(3, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kEmptyListForbidden))
      << report.summary();
}

TEST(PlanAuditorTest, DetectsSuboptimalPlanAgainstDirectSource) {
  Env env(fixtureTopology());
  // A huge timeout makes any peer request slower than going straight to the
  // source; a list that still tries a peer reports an honestly-computed but
  // suboptimal delay.
  const AuditOptions options = fixtureOptions(1000.0);
  Strategy s;
  s.peers = {{4, 2, env.routing.rtt(3, 4)}};
  s.expected_delay_ms = env.auditor.recomputeDelay(3, s.peers, options);
  ASSERT_GT(s.expected_delay_ms, env.routing.rtt(3, 0));
  const AuditReport report = env.auditor.auditStrategy(3, s, options);
  EXPECT_TRUE(hasCode(report, ViolationCode::kSuboptimalVsSource))
      << report.summary();
  EXPECT_FALSE(hasCode(report, ViolationCode::kDelayMismatch));
}

TEST(PlanAuditorTest, ReportSummaryNamesCodeAndClient) {
  DeepBaseline base;
  Strategy s = base.strategy;
  s.expected_delay_ms += 1.0;
  const AuditReport report = base.env.auditor.auditStrategy(3, s, base.options);
  ASSERT_FALSE(report.ok());
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("delay-mismatch"), std::string::npos) << summary;
  EXPECT_NE(summary.find("client 3"), std::string::npos) << summary;
}

// ------------------------------------------------------------------- JSON

TEST(PlanAuditorTest, JsonReportIsMachineReadable) {
  DeepBaseline base;
  Strategy s = base.strategy;
  s.expected_delay_ms *= 2.0;
  const AuditReport report = base.env.auditor.auditStrategy(3, s, base.options);
  std::ostringstream out;
  writeReportJson(out, report);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"clients_checked\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\":\"delay-mismatch\""), std::string::npos)
      << json;
}

TEST(PlanAuditorTest, JsonReportCleanCase) {
  AuditReport report;
  report.clients_checked = 4;
  std::ostringstream out;
  writeReportJson(out, report);
  EXPECT_EQ(out.str(),
            "{\"ok\":true,\"clients_checked\":4,\"violations\":[]}\n");
}

TEST(PlanAuditorTest, ViolationCodesHaveDistinctNames) {
  const ViolationCode codes[] = {
      ViolationCode::kPeerNotInTree,
      ViolationCode::kPeerIsSelf,
      ViolationCode::kSourceOnList,
      ViolationCode::kPeerNotAClient,
      ViolationCode::kExcludedPeerOnList,
      ViolationCode::kUselessPeer,
      ViolationCode::kDsMismatch,
      ViolationCode::kRttMismatch,
      ViolationCode::kDsNotDescending,
      ViolationCode::kDuplicateCompetitiveClass,
      ViolationCode::kNotMinRttInClass,
      ViolationCode::kListTooLong,
      ViolationCode::kEmptyListForbidden,
      ViolationCode::kDelayMismatch,
      ViolationCode::kSuboptimalVsSource,
  };
  std::vector<std::string_view> names;
  names.reserve(std::size(codes));
  for (const ViolationCode code : codes) names.push_back(toString(code));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
      << "violation code names must be pairwise distinct";
}

}  // namespace
}  // namespace rmrn::core
