// Churn under sharding (DESIGN.md §11): joins and leaves must keep the
// sharded plans canonical — equal to a fresh ShardPlanner built on the final
// membership — and, on tree backbones, equal to the flat planner exactly.
// With one shard the plans equal the flat planner on any routing, so the
// single-shard tests below compare against RpPlanner on general graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "core/shard_planner.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "support/tie_trees.hpp"
#include "util/rng.hpp"

namespace rmrn::core {
namespace {

using net::NodeId;

// The largest budget: one shard, whatever the group size.
constexpr std::uint32_t kOneShard = std::numeric_limits<std::uint32_t>::max();

void expectSamePlans(const ShardPlanner& a, const ShardPlanner& b,
                     const std::vector<NodeId>& clients, int step) {
  for (const NodeId u : clients) {
    ASSERT_EQ(a.candidatesFor(u), b.candidatesFor(u))
        << "client " << u << " step " << step;
    ASSERT_EQ(a.strategyFor(u).peers, b.strategyFor(u).peers)
        << "client " << u << " step " << step;
    ASSERT_EQ(a.strategyFor(u).expected_delay_ms,
              b.strategyFor(u).expected_delay_ms)
        << "client " << u << " step " << step;
  }
}

/// Every current client of `churned` must equal a fresh build on the same
/// membership.
void expectMatchesFresh(const ShardPlanner& churned, const net::Topology& topo,
                        const net::Routing& routing,
                        const ShardPlannerOptions& options, int step) {
  net::Topology fresh_topo = topo;
  fresh_topo.clients = churned.currentClients();
  ShardPlannerOptions fresh_options = options;
  fresh_options.planner.timeout_ms = churned.timeoutMs();
  const ShardPlanner fresh(fresh_topo, routing, fresh_options);
  expectSamePlans(churned, fresh, fresh_topo.clients, step);
}

class ShardChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardChurnTest, ChurnedPlannerEqualsFreshShardedPlanner) {
  // Graph backbone: the equivalence being tested is canonicality of the
  // incremental maintenance, independent of the tree-metric exactness.
  util::Rng rng(GetParam());
  net::TopologyConfig config;
  config.num_nodes = 140;
  net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);

  ShardPlannerOptions options;
  options.planner.timeout_ms = 80.0;  // fixed: membership-independent
  options.max_shard_clients = 5;
  ShardPlanner churned(topo, routing, options);

  std::set<NodeId> current(topo.clients.begin(), topo.clients.end());
  std::vector<NodeId> pool;  // absent clients available for joining
  for (int step = 0; step < 60; ++step) {
    const bool join = !pool.empty() &&
                      (current.size() < 4 || rng.bernoulli(0.5));
    if (join) {
      const std::size_t i = rng.uniformInt(pool.size());
      const NodeId v = pool[i];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
      churned.addClient(v);
      current.insert(v);
      // A join always rebuilds at least the joiner's region.  (A leave can
      // legitimately touch zero shards: a residual singleton that was
      // nobody's winning representative vanishes without a trace.)
      EXPECT_GE(churned.lastReplans(), 1u);
      EXPECT_GE(churned.lastShardsTouched(), 1u);
    } else {
      std::vector<NodeId> cur(current.begin(), current.end());
      const NodeId v = cur[rng.uniformInt(cur.size())];
      churned.removeClient(v);
      current.erase(v);
      pool.push_back(v);
    }

    ASSERT_EQ(churned.numClients(), current.size());
    ASSERT_EQ(churned.currentClients(),
              std::vector<NodeId>(current.begin(), current.end()));
    expectMatchesFresh(churned, topo, routing, options, step);
  }
}

TEST_P(ShardChurnTest, TreeMetricChurnTracksSingleShardPlanner) {
  util::Rng rng(GetParam() * 613 + 7);
  net::Topology topo = net::generateTreeTopology(250, rng);
  const net::Routing routing(topo.graph, topo.tree);

  ShardPlannerOptions options;
  options.planner.timeout_ms = 120.0;
  options.max_shard_clients = 6;
  ShardPlanner sharded(topo, routing, options);
  ShardPlannerOptions one_shard = options;
  one_shard.max_shard_clients = kOneShard;
  ShardPlanner single(topo, routing, one_shard);

  std::set<NodeId> current(topo.clients.begin(), topo.clients.end());
  // Join pool includes internal tree members: a router can start acting as
  // a receiver.
  std::vector<NodeId> pool;
  for (const NodeId v : topo.tree.members()) {
    if (v != topo.source && !topo.isClient(v)) pool.push_back(v);
  }

  for (int step = 0; step < 80; ++step) {
    const bool join = current.size() < 4 ||
                      (!pool.empty() && rng.bernoulli(0.5));
    if (join && !pool.empty()) {
      const std::size_t i = rng.uniformInt(pool.size());
      const NodeId v = pool[i];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
      sharded.addClient(v);
      single.addClient(v);
      current.insert(v);
    } else {
      std::vector<NodeId> cur(current.begin(), current.end());
      const NodeId v = cur[rng.uniformInt(cur.size())];
      sharded.removeClient(v);
      single.removeClient(v);
      current.erase(v);
      pool.push_back(v);
    }
    // The single shard is the flat planner (SingleShardChurnTest below);
    // tree-metric sharding must match it exactly, client by client.
    ASSERT_EQ(single.partition().numShards(), 1u) << "step " << step;
    expectSamePlans(sharded, single,
                    std::vector<NodeId>(current.begin(), current.end()),
                    step);
  }
}

TEST_P(ShardChurnTest, ChurnStormIsDeterministic) {
  util::Rng topo_rng(GetParam() * 7 + 3);
  const net::Topology topo = net::generateTreeTopology(400, topo_rng);
  const net::Routing routing(topo.graph, topo.tree);

  ShardPlannerOptions options;
  options.planner.timeout_ms = 100.0;
  options.max_shard_clients = 8;

  const auto storm = [&] {
    ShardPlanner planner(topo, routing, options);
    util::Rng rng(909);
    std::vector<NodeId> current = topo.clients;
    std::vector<std::tuple<NodeId, std::size_t, std::size_t>> trace;
    for (int step = 0; step < 300; ++step) {
      const std::size_t i = rng.uniformInt(current.size());
      const NodeId v = current[i];
      planner.removeClient(v);
      trace.emplace_back(v, planner.lastReplans(),
                         planner.lastShardsTouched());
      planner.addClient(v);
      trace.emplace_back(v, planner.lastReplans(),
                         planner.lastShardsTouched());
    }
    double total = 0.0;
    for (const NodeId u : current) {
      total += planner.strategyFor(u).expected_delay_ms;
    }
    return std::make_pair(trace, total);
  };
  const auto a = storm();
  const auto b = storm();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);

  // Golden (replans, shards touched) sums over the trace, recorded with a
  // planner that reselected every member of every touched shard: patching
  // single classes must replan exactly the same clients.
  const std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> golden = {
      {21u, {8542, 4068}}, {84u, {7500, 3301}}, {5150u, {8958, 3794}}};
  std::size_t replans = 0;
  std::size_t touched = 0;
  for (const auto& [v, r, t] : a.first) {
    replans += r;
    touched += t;
  }
  EXPECT_EQ(std::make_pair(replans, touched), golden.at(GetParam()));
}

TEST_P(ShardChurnTest, ExcludedPeersWithResidualShardsTrackFreshPlanner) {
  // K = 2 with internal routers joining as receivers forces residual
  // singletons, whose nested shards meet them at the residual's own depth;
  // banned peers join and leave too.
  util::Rng rng(GetParam() * 31 + 11);
  const net::Topology topo = net::generateTreeTopology(160, rng);
  const net::Routing routing(topo.graph, topo.tree);

  std::vector<NodeId> pool;
  for (const NodeId v : topo.tree.members()) {
    if (v != topo.source && !topo.isClient(v)) pool.push_back(v);
  }
  ShardPlannerOptions options;
  options.planner.timeout_ms = 100.0;
  options.max_shard_clients = 2;
  for (std::size_t i = 0; i < topo.clients.size(); i += 7) {
    options.planner.excluded_peers.push_back(topo.clients[i]);
  }
  for (std::size_t i = 0; i < pool.size(); i += 5) {
    options.planner.excluded_peers.push_back(pool[i]);
  }
  ShardPlanner churned(topo, routing, options);

  std::set<NodeId> current(topo.clients.begin(), topo.clients.end());
  bool saw_residual = false;
  for (int step = 0; step < 80; ++step) {
    const bool join = current.size() < 4 ||
                      (!pool.empty() && rng.bernoulli(0.6));
    if (join && !pool.empty()) {
      const std::size_t i = rng.uniformInt(pool.size());
      const NodeId v = pool[i];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
      churned.addClient(v);
      current.insert(v);
    } else {
      std::vector<NodeId> cur(current.begin(), current.end());
      const NodeId v = cur[rng.uniformInt(cur.size())];
      churned.removeClient(v);
      current.erase(v);
      pool.push_back(v);
    }
    for (std::uint32_t id = 0; id < churned.partition().numSlots(); ++id) {
      saw_residual |= churned.partition().isLive(id) &&
                      churned.partition().shard(id).residual;
    }
    ASSERT_EQ(churned.numClients(), current.size());
    expectMatchesFresh(churned, topo, routing, options, step);
  }
  EXPECT_TRUE(saw_residual);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardChurnTest,
                         ::testing::Values(21u, 84u, 5150u));

TEST(ShardChurnRepresentativeTest, LeavingRepresentativePromotesSuccessor) {
  util::Rng rng(1717);
  const net::Topology topo = net::generateTreeTopology(350, rng);
  const net::Routing routing(topo.graph, topo.tree);

  ShardPlannerOptions options;
  options.planner.timeout_ms = 90.0;
  options.max_shard_clients = 6;
  ShardPlanner planner(topo, routing, options);
  ASSERT_GT(planner.partition().numShards(), 2u);

  // Find a client that some *other* shard imported as a representative.
  NodeId rep = net::kInvalidNode;
  NodeId importer = net::kInvalidNode;
  for (const NodeId u : topo.clients) {
    const std::uint32_t sid = planner.partition().shardOf(u);
    for (const NodeId p : planner.consideredPeersFor(u)) {
      if (planner.partition().shardOf(p) != sid) {
        rep = p;
        importer = u;
        break;
      }
    }
    if (rep != net::kInvalidNode) break;
  }
  ASSERT_NE(rep, net::kInvalidNode);

  planner.removeClient(rep);
  // The representative's own region plus at least the importer's shard had
  // to be revisited.
  EXPECT_GE(planner.lastShardsTouched(), 2u);
  for (const NodeId u : planner.currentClients()) {
    for (const NodeId p : planner.consideredPeersFor(u)) {
      EXPECT_NE(p, rep);  // the leaver serves nobody anymore
    }
    for (const Candidate& c : planner.strategyFor(u).peers) {
      EXPECT_NE(c.peer, rep);
    }
  }

  // Promotion correctness: the importer's plan equals the flat plan on the
  // reduced membership (tree metric is exact).
  net::Topology reduced = topo;
  std::erase(reduced.clients, rep);
  PlannerOptions flat_options = options.planner;
  const RpPlanner flat(reduced, routing, flat_options);
  ASSERT_EQ(planner.candidatesFor(importer), flat.candidatesFor(importer));
  EXPECT_EQ(planner.strategyFor(importer).expected_delay_ms,
            flat.strategyFor(importer).expected_delay_ms);
}

TEST(ShardChurnRepresentativeTest, CrownCycleMatchesFreshPlanner) {
  // The crown — the client closest to the source — is the representative
  // every shard meeting its region imports; its departure must hand each
  // importer's class to the right successor.
  util::Rng rng(4242);
  const net::Topology topo = net::generateShallowTreeTopology(3000, rng);
  const net::Routing routing(topo.graph, topo.tree);

  ShardPlannerOptions options;
  options.max_shard_clients = 16;
  ShardPlanner planner(topo, routing, options);
  ASSERT_GT(planner.partition().numShards(), 10u);

  NodeId crown = topo.clients.front();
  for (const NodeId c : topo.clients) {
    if (routing.rtt(c, topo.source) < routing.rtt(crown, topo.source)) {
      crown = c;
    }
  }
  for (int cycle = 0; cycle < 2; ++cycle) {
    planner.removeClient(crown);
    EXPECT_GT(planner.lastShardsTouched(), 2u);
    expectMatchesFresh(planner, topo, routing, options, 2 * cycle);
    planner.addClient(crown);
    EXPECT_GT(planner.lastShardsTouched(), 2u);
    expectMatchesFresh(planner, topo, routing, options, 2 * cycle + 1);
  }
  EXPECT_EQ(planner.currentClients(), topo.clients);
}

TEST(ShardChurnRepresentativeTest, EqualRttTiesBreakLikeAFreshPlanner) {
  // A complete ternary tree with unit link delays: every class is full of
  // exact RTT ties, which patched classes must break toward the lowest id
  // exactly as a fresh selection does.
  const net::Topology topo = test_support::unitDelayTernaryTree();
  const net::Routing routing(topo.graph, topo.tree);

  ShardPlannerOptions options;
  options.planner.timeout_ms = 50.0;
  options.max_shard_clients = 4;
  ShardPlanner planner(topo, routing, options);
  int step = 0;
  for (const NodeId v : topo.clients) {
    planner.removeClient(v);
    expectMatchesFresh(planner, topo, routing, options, step++);
    planner.addClient(v);
    expectMatchesFresh(planner, topo, routing, options, step++);
  }
}

TEST(ShardChurnRepresentativeTest, RoundedRttTiesBreakLikeAFreshPlanner) {
  // Link delays in tenths of a millisecond: rounding makes RTTs tie while
  // source RTTs differ, so a joiner's patch must apply the full class order
  // (RTT, source RTT, id), as a fresh selection does.
  util::Rng rng(8);
  const net::Topology topo = test_support::withTenthDelaysAndInternalClients(
      net::generateShallowTreeTopology(300, rng), rng);
  const net::Routing routing(topo.graph, topo.tree);

  ShardPlannerOptions options;
  options.planner.timeout_ms = 50.0;
  options.max_shard_clients = 8;
  ShardPlanner planner(topo, routing, options);
  int step = 0;
  for (const NodeId v : topo.clients) {
    planner.removeClient(v);
    expectMatchesFresh(planner, topo, routing, options, step++);
    planner.addClient(v);
    expectMatchesFresh(planner, topo, routing, options, step++);
  }
}

TEST(ShardChurnLocalityTest, NonRepresentativeChurnTouchesOneShard) {
  util::Rng rng(33);
  const net::Topology topo = net::generateTreeTopology(800, rng);
  const net::Routing routing(topo.graph, topo.tree);

  ShardPlannerOptions options;
  options.planner.timeout_ms = 100.0;
  options.max_shard_clients = 10;
  ShardPlanner planner(topo, routing, options);

  // Remove+re-add every client; most are not representatives and must cost
  // exactly one touched shard per operation.
  std::size_t single = 0;
  std::size_t ops = 0;
  for (const NodeId v : topo.clients) {
    planner.removeClient(v);
    single += planner.lastShardsTouched() == 1 ? 1 : 0;
    ++ops;
    planner.addClient(v);
    single += planner.lastShardsTouched() == 1 ? 1 : 0;
    ++ops;
  }
  EXPECT_GT(single, ops / 2);
  // And the group ends exactly where it started.
  EXPECT_EQ(planner.currentClients(), topo.clients);
}

// ---- One shard on general-graph routing ------------------------------------
//
// With K = UINT32_MAX the whole group is one shard whose consideration set
// is every client, so after any join or leave each plan must equal a fresh
// flat RpPlanner's on the current membership — bit for bit, on arbitrary
// graph backbones — and lastReplans() must count exactly the clients whose
// candidate list changed (plus the joiner on a join).

net::Topology graphTopology(std::uint64_t seed, std::uint32_t nodes) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = nodes;
  return net::generateTopology(config, rng);
}

ShardPlannerOptions oneShard() {
  ShardPlannerOptions options;
  options.planner.per_peer_timeout_factor = 1.5;
  options.max_shard_clients = kOneShard;
  return options;
}

/// Every current client of `planner` plans exactly as a fresh RpPlanner on
/// the same membership and resolved options.
void expectMatchesFlat(const ShardPlanner& planner, const net::Topology& topo,
                       const net::Routing& routing, int step = 0) {
  ASSERT_EQ(planner.partition().numShards(), 1u) << "step " << step;
  net::Topology fresh_topo = topo;
  fresh_topo.clients = planner.currentClients();
  const RpPlanner flat(fresh_topo, routing, planner.resolvedOptions().planner);
  for (const NodeId u : fresh_topo.clients) {
    ASSERT_EQ(planner.candidatesFor(u), flat.candidatesFor(u))
        << "client " << u << " step " << step;
    ASSERT_EQ(planner.strategyFor(u).peers, flat.strategyFor(u).peers)
        << "client " << u << " step " << step;
    ASSERT_EQ(planner.strategyFor(u).expected_delay_ms,
              flat.strategyFor(u).expected_delay_ms)
        << "client " << u << " step " << step;
  }
}

TEST(SingleShardChurnTest, AddClientMatchesFreshPlan) {
  const net::Topology topo = graphTopology(3, 80);
  const net::Routing routing(topo.graph);
  ShardPlanner planner(topo, routing, oneShard());

  // Promote a non-client tree member (a router) to receiver.
  NodeId joiner = net::kInvalidNode;
  for (const NodeId v : topo.tree.members()) {
    if (v != topo.source && !topo.isClient(v)) {
      joiner = v;
      break;
    }
  }
  ASSERT_NE(joiner, net::kInvalidNode);
  planner.addClient(joiner);
  expectMatchesFlat(planner, topo, routing);
}

TEST(SingleShardChurnTest, RemoveClientMatchesFreshPlan) {
  const net::Topology topo = graphTopology(4, 80);
  const net::Routing routing(topo.graph);
  ShardPlanner planner(topo, routing, oneShard());

  const NodeId leaver = topo.clients[topo.clients.size() / 2];
  planner.removeClient(leaver);
  expectMatchesFlat(planner, topo, routing);
  EXPECT_THROW((void)planner.strategyFor(leaver), std::out_of_range);
}

TEST(SingleShardChurnTest, RemoveThenReAddRestoresPlans) {
  const net::Topology topo = graphTopology(5, 80);
  const net::Routing routing(topo.graph);
  ShardPlanner planner(topo, routing, oneShard());
  const ShardPlanner original(topo, routing, oneShard());

  const NodeId v = topo.clients.front();
  planner.removeClient(v);
  planner.addClient(v);
  expectSamePlans(planner, original, topo.clients, 0);
}

TEST(SingleShardChurnTest, ReplansExactlyTheAffectedClients) {
  // lastReplans must equal the number of clients whose candidate list
  // actually changed (plus the joiner itself on a join) — the incremental
  // accounting is exact, never "replan everything to be safe".
  const net::Topology topo = graphTopology(7, 120);
  const net::Routing routing(topo.graph);
  ShardPlanner planner(topo, routing, oneShard());

  const NodeId v = topo.clients[1];
  const auto snapshot = [&] {
    std::unordered_map<NodeId, std::vector<Candidate>> lists;
    for (const NodeId u : planner.currentClients()) {
      if (u != v) lists.emplace(u, planner.candidatesFor(u));
    }
    return lists;
  };
  const auto changedSince = [&](const auto& before) {
    std::size_t changed = 0;
    for (const auto& [u, list] : before) {
      if (planner.candidatesFor(u) != list) ++changed;
    }
    return changed;
  };

  const auto before_leave = snapshot();
  planner.removeClient(v);
  EXPECT_EQ(planner.lastReplans(), changedSince(before_leave));
  const auto before_join = snapshot();
  planner.addClient(v);
  EXPECT_EQ(planner.lastReplans(), changedSince(before_join) + 1);
}

TEST(SingleShardChurnTest, RemovingNonCandidateReplansNothing) {
  // A leaver that never served as anyone's class candidate must not touch
  // any other client's plan.
  const net::Topology topo = graphTopology(8, 150);
  const net::Routing routing(topo.graph);
  ShardPlanner planner(topo, routing, oneShard());

  // Find a client that appears in nobody's candidate list.
  NodeId unused = net::kInvalidNode;
  for (const NodeId v : topo.clients) {
    bool referenced = false;
    for (const NodeId u : topo.clients) {
      if (u == v) continue;
      for (const Candidate& c : planner.candidatesFor(u)) {
        referenced = referenced || c.peer == v;
      }
      if (referenced) break;
    }
    if (!referenced) {
      unused = v;
      break;
    }
  }
  ASSERT_NE(unused, net::kInvalidNode)
      << "every client is some candidate on this topology";
  planner.removeClient(unused);
  EXPECT_EQ(planner.lastReplans(), 0u);
}

// Random join/leave sequences over every non-source tree member (routers
// included), checked against the flat planner after each operation.
class DynamicChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicChurnTest, RandomChurnSequenceMatchesFreshPlans) {
  const net::Topology topo = graphTopology(GetParam(), 60);
  const net::Routing routing(topo.graph);
  ShardPlanner planner(topo, routing, oneShard());

  util::Rng rng(GetParam() + 100);
  std::vector<NodeId> members;  // churn pool: every non-source member
  for (const NodeId v : topo.tree.members()) {
    if (v != topo.source) members.push_back(v);
  }
  for (int op = 0; op < 30; ++op) {
    const NodeId v = members[rng.uniformInt(members.size())];
    const bool is_client = planner.partition().isClient(v);
    if (is_client && planner.numClients() > 2) {
      planner.removeClient(v);
    } else if (!is_client) {
      planner.addClient(v);
    }
    expectMatchesFlat(planner, topo, routing, op);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicChurnTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace rmrn::core
