#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace rmrn::net {

bool Topology::isClient(NodeId v) const {
  return std::binary_search(clients.begin(), clients.end(), v);
}

std::vector<NodeId> Topology::agents() const {
  std::vector<NodeId> out = clients;
  out.push_back(source);
  return out;
}

std::vector<std::pair<NodeId, NodeId>> randomPruferTree(std::uint32_t n,
                                                        util::Rng& rng) {
  if (n < 2) throw std::invalid_argument("randomPruferTree: need n >= 2");
  if (n == 2) return {{0, 1}};

  // Random Prüfer sequence of length n - 2 decodes to a uniform labelled tree.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.uniformInt(n));

  std::vector<std::uint32_t> degree(n, 1);
  for (const NodeId x : prufer) ++degree[x];

  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(n - 1);

  // Min-leaf decoding with a pointer + candidate trick (O(n log n) via a
  // simple scan is fine at our sizes; use the classic linear decoding).
  NodeId ptr = 0;
  while (degree[ptr] != 1) ++ptr;
  NodeId leaf = ptr;
  for (const NodeId v : prufer) {
    edges.emplace_back(leaf, v);
    if (--degree[v] == 1 && v < ptr) {
      leaf = v;
    } else {
      ++ptr;
      while (ptr < n && degree[ptr] != 1) ++ptr;
      leaf = ptr;
    }
  }
  edges.emplace_back(leaf, static_cast<NodeId>(n - 1));
  return edges;
}

std::vector<NodeId> wilsonSpanningTree(const Graph& g, NodeId root,
                                       util::Rng& rng) {
  const std::size_t n = g.numNodes();
  if (root >= n) throw std::invalid_argument("wilsonSpanningTree: bad root");
  if (!g.isConnected()) {
    throw std::invalid_argument("wilsonSpanningTree: graph not connected");
  }

  std::vector<bool> in_tree(n, false);
  std::vector<NodeId> parent(n, kInvalidNode);
  in_tree[root] = true;

  // Wilson's algorithm: for each node not yet in the tree, perform a
  // loop-erased random walk until the walk hits the tree, then attach the
  // erased path.  `next[v]` records the last exit taken from v; re-walking
  // from the start node and following `next` yields the loop-erased path.
  std::vector<NodeId> next(n, kInvalidNode);
  for (NodeId start = 0; start < n; ++start) {
    if (in_tree[start]) continue;
    NodeId v = start;
    while (!in_tree[v]) {
      const auto neighbors = g.neighbors(v);
      const auto pick = rng.uniformInt(neighbors.size());
      next[v] = neighbors[static_cast<std::size_t>(pick)].to;
      v = next[v];
    }
    v = start;
    while (!in_tree[v]) {
      in_tree[v] = true;
      parent[v] = next[v];
      v = next[v];
    }
  }
  return parent;
}

namespace {

// Stitches a possibly-disconnected graph by linking each later component to
// the first one through its (geometrically) nearest cross pair.
void connectComponents(Graph& g, const std::vector<double>& x,
                       const std::vector<double>& y,
                       const std::function<DelayMs(double)>& delayOf) {
  const std::size_t n = g.numNodes();
  std::vector<std::size_t> component(n, 0);
  std::size_t num_components = 0;
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (component[start] != 0) continue;
    ++num_components;
    component[start] = num_components;
    stack.push_back(start);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const HalfEdge& e : g.neighbors(v)) {
        if (component[e.to] == 0) {
          component[e.to] = num_components;
          stack.push_back(e.to);
        }
      }
    }
  }
  for (std::size_t c = 2; c <= num_components; ++c) {
    double best = std::numeric_limits<double>::infinity();
    NodeId best_a = kInvalidNode;
    NodeId best_b = kInvalidNode;
    for (NodeId a = 0; a < n; ++a) {
      if (component[a] != 1) continue;
      for (NodeId b = 0; b < n; ++b) {
        if (component[b] != c) continue;
        const double dx = x[a] - x[b];
        const double dy = y[a] - y[b];
        const double dist = std::sqrt(dx * dx + dy * dy);
        if (dist < best) {
          best = dist;
          best_a = a;
          best_b = b;
        }
      }
    }
    g.addEdge(best_a, best_b, delayOf(best));
    // Absorb component c into component 1.
    for (NodeId v = 0; v < n; ++v) {
      if (component[v] == c) component[v] = 1;
    }
  }
}

}  // namespace

Topology generateTopology(const TopologyConfig& config, util::Rng& rng) {
  const std::uint32_t n = config.num_nodes;
  if (n < 3) throw std::invalid_argument("generateTopology: need >= 3 nodes");
  if (config.min_base_delay <= 0.0 ||
      config.max_base_delay < config.min_base_delay) {
    throw std::invalid_argument("generateTopology: bad delay range");
  }
  if (config.extra_edge_fraction < 0.0) {
    throw std::invalid_argument("generateTopology: bad extra_edge_fraction");
  }
  if (config.waxman_alpha <= 0.0 || config.waxman_alpha > 1.0 ||
      config.waxman_beta <= 0.0) {
    throw std::invalid_argument("generateTopology: bad Waxman parameters");
  }

  Topology topo;
  topo.graph = Graph(n);

  const auto sampleDelay = [&] {
    const DelayMs base =
        rng.uniformReal(config.min_base_delay, config.max_base_delay);
    return rng.uniformReal(base, 2.0 * base);
  };

  if (config.model == BackboneModel::kTreePlusEdges) {
    // Backbone: uniform random tree plus extra random links.
    for (const auto& [a, b] : randomPruferTree(n, rng)) {
      topo.graph.addEdge(a, b, sampleDelay());
    }
    const auto extra_target =
        static_cast<std::size_t>(config.extra_edge_fraction * n);
    const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
    std::size_t added = 0;
    std::size_t attempts = 0;
    while (added < extra_target && topo.graph.numEdges() < max_edges &&
           attempts < 50 * extra_target + 100) {
      ++attempts;
      const auto a = static_cast<NodeId>(rng.uniformInt(n));
      const auto b = static_cast<NodeId>(rng.uniformInt(n));
      if (a == b || topo.graph.hasEdge(a, b)) continue;
      topo.graph.addEdge(a, b, sampleDelay());
      ++added;
    }
  } else {
    // Waxman: nodes in the unit square; the base delay maps euclidean link
    // length into [min_base_delay, max_base_delay], then the paper's
    // uniform-[d, 2d] expected-delay convention applies.
    std::vector<double> x(n);
    std::vector<double> y(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      x[v] = rng.uniform01();
      y[v] = rng.uniform01();
    }
    constexpr double kDiagonal = 1.4142135623730951;
    const auto delayOf = [&](double dist) -> DelayMs {
      const DelayMs base = config.min_base_delay +
                           dist / kDiagonal * (config.max_base_delay -
                                               config.min_base_delay);
      return rng.uniformReal(base, 2.0 * base);
    };
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        const double dx = x[a] - x[b];
        const double dy = y[a] - y[b];
        const double dist = std::sqrt(dx * dx + dy * dy);
        const double p = config.waxman_alpha *
                         std::exp(-dist / (config.waxman_beta * kDiagonal));
        if (rng.bernoulli(p)) topo.graph.addEdge(a, b, delayOf(dist));
      }
    }
    connectComponents(topo.graph, x, y, delayOf);
  }

  // Multicast tree: uniform spanning tree rooted at a random source.
  topo.source = static_cast<NodeId>(rng.uniformInt(n));
  auto parent = wilsonSpanningTree(topo.graph, topo.source, rng);
  topo.tree = MulticastTree(topo.source, std::move(parent));

  topo.clients = topo.tree.leaves();
  std::erase(topo.clients, topo.source);  // root with a single child is no client
  std::sort(topo.clients.begin(), topo.clients.end());
  return topo;
}

Topology generateTreeTopology(std::uint32_t num_nodes, util::Rng& rng,
                              DelayMs min_base_delay, DelayMs max_base_delay) {
  if (num_nodes < 3) {
    throw std::invalid_argument("generateTreeTopology: need >= 3 nodes");
  }
  if (min_base_delay <= 0.0 || max_base_delay < min_base_delay) {
    throw std::invalid_argument("generateTreeTopology: bad delay range");
  }

  Topology topo;
  topo.graph = Graph(num_nodes);
  for (const auto& [a, b] : randomPruferTree(num_nodes, rng)) {
    const DelayMs base = rng.uniformReal(min_base_delay, max_base_delay);
    topo.graph.addEdge(a, b, rng.uniformReal(base, 2.0 * base));
  }

  // The spanning tree of a tree is the tree itself: extract parents by BFS
  // from the source over a compact adjacency snapshot.
  topo.source = static_cast<NodeId>(rng.uniformInt(num_nodes));
  const CsrAdjacency csr(topo.graph);
  std::vector<NodeId> parent(num_nodes, kInvalidNode);
  std::vector<NodeId> queue;
  queue.reserve(num_nodes);
  queue.push_back(topo.source);
  std::vector<bool> seen(num_nodes, false);
  seen[topo.source] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (const HalfEdge& e : csr.neighbors(v)) {
      if (seen[e.to]) continue;
      seen[e.to] = true;
      parent[e.to] = v;
      queue.push_back(e.to);
    }
  }
  topo.tree = MulticastTree(topo.source, std::move(parent));

  topo.clients = topo.tree.leaves();
  std::erase(topo.clients, topo.source);
  std::sort(topo.clients.begin(), topo.clients.end());
  return topo;
}

Topology generateShallowTreeTopology(std::uint32_t num_nodes, util::Rng& rng,
                                     DelayMs min_base_delay,
                                     DelayMs max_base_delay) {
  if (num_nodes < 3) {
    throw std::invalid_argument("generateShallowTreeTopology: need >= 3 nodes");
  }
  if (min_base_delay <= 0.0 || max_base_delay < min_base_delay) {
    throw std::invalid_argument("generateShallowTreeTopology: bad delay range");
  }

  Topology topo;
  topo.graph = Graph(num_nodes);
  topo.source = 0;
  // Random recursive tree: each node attaches to a uniform earlier node, so
  // the parent array is immediate — no BFS extraction needed.
  std::vector<NodeId> parent(num_nodes, kInvalidNode);
  for (NodeId v = 1; v < num_nodes; ++v) {
    const NodeId p = static_cast<NodeId>(rng.uniformInt(v));
    parent[v] = p;
    const DelayMs base = rng.uniformReal(min_base_delay, max_base_delay);
    topo.graph.addEdge(p, v, rng.uniformReal(base, 2.0 * base));
  }
  topo.tree = MulticastTree(topo.source, std::move(parent));

  topo.clients = topo.tree.leaves();
  std::erase(topo.clients, topo.source);
  std::sort(topo.clients.begin(), topo.clients.end());
  return topo;
}

}  // namespace rmrn::net
