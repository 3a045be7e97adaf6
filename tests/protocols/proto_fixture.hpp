// Shared harness for protocol unit tests: a hand-built topology with known
// structure, plus helpers to craft deterministic loss patterns.
#pragma once

#include <gtest/gtest.h>

#include "core/auditor.hpp"
#include "core/planner.hpp"
#include "metrics/recovery_metrics.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rmrn::protocols::testutil {

// Fixture (edge delays in parentheses; routing follows tree edges):
//
//            0 (source)
//            | (1)
//            1
//       (1) / \ (2)
//          2   5
//     (1) / \(4)\ (1)
//        3   4   6
//           (1) / \ (2)
//              7   8
//
// Clients = {3, 4, 7, 8}; depths 3, 3, 4, 4.
inline net::Topology fixtureTopology() {
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

// Deep-chain fixture where peer recovery strictly beats the source, used to
// observe strategic behaviour:
//
//   0 (source) --10-- 1 --1-- 2 --1-- 3 (client u, depth 3)
//                     |       |
//                    (1)     (1)
//                     4       5
//                 (client v) (client w)
//
// For u = 3: candidates are w (ds 2, rtt 4) and v (ds 1, rtt 6);
// rtt(u, source) = 24.  With t_0 = 12 the optimal RP strategy is [v] —
// skipping the geographically nearer w because it is too loss-correlated —
// while RMA's nearest-upstream order visits w first.
inline net::Topology deepTopology() {
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

// Referees a finished planner with core::PlanAuditor: every protocol test
// that plans also proves its plans lemma-valid (Lemmas 4-5) with delays
// matching the independent Eqs. 1-3 recomputation.
inline void expectLemmaValidPlans(const net::Topology& topo,
                                  const net::Routing& routing,
                                  const core::RpPlanner& planner) {
  const core::PlanAuditor auditor(topo, routing);
  const core::AuditReport report = auditor.auditPlanner(planner);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// Bundles the simulation substrate a protocol needs.  `loss_prob` applies to
// recovery traffic; data losses come from explicit patterns.
struct ProtoHarness {
  net::Topology topo;
  net::Routing routing;
  sim::Simulator sim;
  sim::SimNetwork network;
  metrics::RecoveryMetrics metrics;

  explicit ProtoHarness(double loss_prob = 0.0, std::uint64_t seed = 1,
                        net::Topology topology = fixtureTopology())
      : topo(std::move(topology)),
        routing(topo.graph),
        network(sim, topo, routing, loss_prob,
                sim::lossSeedOf(util::Rng(seed))) {}

  /// All-clear loss pattern.
  [[nodiscard]] sim::LinkLossPattern noLoss() const {
    return sim::LinkLossPattern(topo.tree.numMembers(), false);
  }

  /// Pattern dropping the tree links into the given child nodes.
  [[nodiscard]] sim::LinkLossPattern lossInto(
      std::initializer_list<net::NodeId> children) const {
    sim::LinkLossPattern pattern = noLoss();
    for (const net::NodeId c : children) {
      pattern[topo.tree.memberIndex(c)] = true;
    }
    return pattern;
  }
};

}  // namespace rmrn::protocols::testutil
