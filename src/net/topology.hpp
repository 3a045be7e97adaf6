// Random topology generation following paper §5.1:
//
//   "Network topology for use in the simulator is randomly generated ...
//    links are randomly generated to connect m backbone routers.  The
//    multicast tree is just a spanning subtree generated in the network
//    topology. ... the typical delay for each link i is d(i) and a uniformly
//    distributed number between d(i) and 2d(i) is generated as the expected
//    delay ... n is an input to the program and k [the client count] is
//    decided by the randomly generated spanning subtree."
//
// We realise that as: a uniform random labelled tree (Prüfer) over n nodes
// plus a configurable fraction of extra random links forms the backbone; the
// multicast tree is a uniform spanning tree of the backbone (Wilson's
// loop-erased-random-walk algorithm) rooted at a random source; the leaves of
// that tree are the clients.  A uniform random tree has ~n/e leaves, which
// matches the paper's published n -> k pairs (e.g. 500 -> 208).
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "net/multicast_tree.hpp"
#include "net/types.hpp"
#include "util/rng.hpp"

namespace rmrn::net {

/// Backbone random-graph model.
enum class BackboneModel {
  /// Uniform random tree (Prüfer) plus extra random links — matches the
  /// paper's published n -> k client counts (default).
  kTreePlusEdges,
  /// Waxman (1988) geometric random graph: nodes uniform in the unit
  /// square, P(edge) = alpha * exp(-dist / (beta * sqrt(2))), link delay
  /// proportional to distance; disconnected components are stitched by
  /// nearest-pair links.  The standard topology model of 1990s/2000s
  /// multicast simulations.
  kWaxman,
};

struct TopologyConfig {
  /// Total node count n (source + routers + clients).  Must be >= 3.
  std::uint32_t num_nodes = 100;
  BackboneModel model = BackboneModel::kTreePlusEdges;
  /// kTreePlusEdges: extra random links beyond the spanning backbone, as a
  /// fraction of n.
  double extra_edge_fraction = 0.5;
  /// kWaxman: edge probability scale and distance decay.
  double waxman_alpha = 0.2;
  double waxman_beta = 0.3;
  /// Range of the per-link "typical delay" d(i) in milliseconds; the expected
  /// delay used everywhere is then uniform in [d(i), 2 d(i)].  For Waxman,
  /// d(i) maps the euclidean link length into this range.
  DelayMs min_base_delay = 1.0;
  DelayMs max_base_delay = 10.0;
};

/// A generated network: backbone graph, multicast tree, source and clients.
struct Topology {
  Graph graph;
  MulticastTree tree;
  NodeId source = kInvalidNode;
  std::vector<NodeId> clients;  // leaves of the multicast tree, sorted

  [[nodiscard]] bool isClient(NodeId v) const;

  /// The group's agents: the clients, then the source.  Every routing query
  /// the planners and the simulator make starts at one of them, so a sparse
  /// Routing over these rows answers them all (DESIGN.md §7, Routing).
  [[nodiscard]] std::vector<NodeId> agents() const;
};

/// Generates a random topology.  Deterministic in (config, rng state).
[[nodiscard]] Topology generateTopology(const TopologyConfig& config,
                                        util::Rng& rng);

/// Pure-tree topology for scale sweeps: the backbone IS a uniform random
/// tree (Prüfer, no extra links), the multicast tree is its unique spanning
/// tree rooted at a random source (BFS parent extraction — Wilson's walk
/// would be pointless on a tree), and the clients are the leaves (~n/e of
/// them).  O(n) end to end, so million-node groups generate in well under a
/// second.  Pair with Routing's tree-metric mode, which is exact on tree
/// backbones.  Deterministic in (num_nodes, delay range, rng state).
[[nodiscard]] Topology generateTreeTopology(std::uint32_t num_nodes,
                                            util::Rng& rng,
                                            DelayMs min_base_delay = 1.0,
                                            DelayMs max_base_delay = 10.0);

/// Shallow pure-tree topology: a random recursive tree (each node attaches
/// to a uniform earlier node; the source is node 0), giving O(log n)
/// expected depth — the shape of real multicast distribution trees, whereas
/// uniform Prüfer trees grow Θ(sqrt(n)) deep.  Depth bounds the per-client
/// candidate-list length, so this is the generator the planner scale sweeps
/// use.  Clients are the leaves (~n/2 of them); O(n) end to end.
/// Deterministic in (num_nodes, delay range, rng state).
[[nodiscard]] Topology generateShallowTreeTopology(
    std::uint32_t num_nodes, util::Rng& rng, DelayMs min_base_delay = 1.0,
    DelayMs max_base_delay = 10.0);

/// Uniform random labelled tree on n >= 2 nodes via a random Prüfer sequence.
/// Returned as an edge list (parentless representation).
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> randomPruferTree(
    std::uint32_t n, util::Rng& rng);

/// Uniform spanning tree of a connected graph via Wilson's algorithm, rooted
/// at `root`; returns the parent array (kInvalidNode for the root).
[[nodiscard]] std::vector<NodeId> wilsonSpanningTree(const Graph& g,
                                                     NodeId root,
                                                     util::Rng& rng);

}  // namespace rmrn::net
