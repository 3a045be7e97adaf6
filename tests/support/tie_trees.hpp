// Test helpers: topologies whose delays tie exactly, for the class-order
// tests (core/candidates.hpp classBefore) and the routing kernel tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "util/rng.hpp"

namespace rmrn::test_support {

/// A complete ternary tree of depth 4 with unit link delays, source 0 and
/// the 81 leaves as clients: every class is full of exact RTT and
/// source-RTT ties, broken by id.
inline net::Topology unitDelayTernaryTree() {
  constexpr net::NodeId kNodes = 1 + 3 + 9 + 27 + 81;
  net::Topology topo;
  topo.graph = net::Graph(kNodes);
  std::vector<net::NodeId> parent(kNodes, net::kInvalidNode);
  for (net::NodeId v = 1; v < kNodes; ++v) {
    parent[v] = (v - 1) / 3;
    topo.graph.addEdge(parent[v], v, 1.0);
  }
  topo.tree = net::MulticastTree(0, std::move(parent));
  topo.source = 0;
  for (net::NodeId v = kNodes - 81; v < kNodes; ++v) {
    topo.clients.push_back(v);
  }
  return topo;
}

/// `topo` (a tree backbone) with every link delay redrawn as a multiple of
/// 0.1 ms, so that rounding makes RTTs tie between peers whose source RTTs
/// differ, and about a quarter of the internal routers promoted to clients
/// (members with clients below them, and residual shards at small budgets).
inline net::Topology withTenthDelaysAndInternalClients(
    const net::Topology& topo, util::Rng& rng) {
  net::Topology out = topo;
  out.graph = net::Graph(topo.graph.numNodes());
  for (const net::NodeId v : topo.tree.members()) {
    if (v == topo.source) continue;
    const auto tenths = static_cast<double>(1 + rng.uniformInt(10));
    out.graph.addEdge(topo.tree.parent(v), v, 0.1 * tenths);
    if (!topo.isClient(v) && rng.uniformInt(4) == 0) out.clients.push_back(v);
  }
  std::sort(out.clients.begin(), out.clients.end());
  return out;
}

/// `topo` with every backbone link delay redrawn as a whole number of
/// milliseconds in [1, max_delay] (all 1.0 when max_delay is 1), keeping the
/// edge set, tree, source and clients: many nodes are then reached by
/// several shortest paths of exactly equal length.
inline net::Topology withIntegerDelays(const net::Topology& topo,
                                       util::Rng& rng,
                                       std::uint64_t max_delay) {
  net::Topology out = topo;
  out.graph = net::Graph(topo.graph.numNodes());
  for (net::NodeId v = 0; v < topo.graph.numNodes(); ++v) {
    for (const net::HalfEdge& e : topo.graph.neighbors(v)) {
      if (e.to < v) continue;
      const auto delay = static_cast<double>(1 + rng.uniformInt(max_delay));
      out.graph.addEdge(v, e.to, delay);
    }
  }
  return out;
}

}  // namespace rmrn::test_support
