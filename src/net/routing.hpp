// Unicast routing over the backbone graph.
//
// The paper (§3.1) assumes link-state routing (OSPF) with link delay as link
// cost, so that round-trip times between peers can be read off the routing
// tables.  We implement that: shortest paths over expected link delays via
// one Dijkstra run per source, with path extraction so the simulator can
// forward packets hop by hop.  Every row comes from one kernel, a Dijkstra
// over a reused 4-ary heap that settles nodes in (distance, node) order, so
// a row is bit-identical whichever table shape or thread built it.
//
// Three table shapes are supported:
//   * dense  — one row per graph node (all-pairs);
//   * sparse — rows only for a caller-supplied source set.  Every query the
//     planners and the simulator make starts at a group agent (a unicast
//     routes from its sender, RTTs run from a client, the chaos
//     reachability check routes from the source), so the harness builds
//     rows for Topology::agents() only: k+1 Dijkstra runs instead of n, and
//     a query from a router throws.
//   * tree   — closed-form tree metric over a multicast tree: the distance
//     between two members is wd(a) + wd(b) - 2*wd(lca(a, b)), where wd is
//     the delay-weighted depth.  O(1) per query (LcaIndex), O(n) total
//     state, no Dijkstra at all — the only shape that works at 10^6 nodes.
//     Exact when the backbone is a tree (then tree paths are the only
//     paths); on general graphs it upper-bounds the true shortest-path
//     delay.  A caller that already knows lca(a, b) passes it to
//     rtt(a, b, lca) and skips the query.
// Rows are disjoint, so dense/sparse tables are filled in parallel when
// num_threads != 1 (0 = hardware concurrency); the tables are bit-identical
// to a sequential build regardless of the thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "net/graph.hpp"
#include "net/types.hpp"

namespace rmrn::net {

class MulticastTree;
class LcaIndex;

// Thread-safety (DESIGN.md §12): immutable-after-build — every public const
// method is safe to call concurrently once the constructor returns (the
// parallel table build is internal and joins before returning).  No
// lock-protected members — nothing to RMRN_GUARDED_BY.
class Routing {
 public:
  /// Dense mode: runs Dijkstra from every node of `g`.
  /// O(n * (m + n) log n) work spread over `num_threads` threads.
  explicit Routing(const Graph& g, unsigned num_threads = 1);

  /// Sparse mode: runs Dijkstra only from `sources` (an empty span means
  /// every node, i.e. dense).  Queries whose first argument is not in
  /// `sources` throw std::out_of_range.  Throws std::invalid_argument on
  /// duplicate or out-of-range sources.
  Routing(const Graph& g, std::span<const NodeId> sources,
          unsigned num_threads = 1);

  /// Tree-metric mode: answers member-pair queries off `tree` alone.  Both
  /// query endpoints must be tree members (std::out_of_range otherwise).
  /// Throws std::invalid_argument if a tree edge is missing from `g`.
  /// `tree` must outlive this Routing.
  Routing(const Graph& g, const MulticastTree& tree);

  ~Routing();
  Routing(const Routing&) = delete;
  Routing& operator=(const Routing&) = delete;

  /// One-way expected delay of the shortest path a -> b.  Infinity when
  /// unreachable; 0 when a == b.
  [[nodiscard]] DelayMs distance(NodeId a, NodeId b) const;

  /// Round-trip time estimate between a and b (twice the one-way delay),
  /// the paper's d_j.
  [[nodiscard]] DelayMs rtt(NodeId a, NodeId b) const;

  /// rtt(a, b) given `lca`, the first common router of a and b on the tree.
  /// Under the tree metric the hint replaces the LCA query, and the result
  /// is bit-identical to rtt(a, b): 2 * (wd(a) + wd(b) - 2 * wd(lca)).  The
  /// caller vouches for the hint (audit builds re-derive it); in table mode
  /// the hint is ignored.  Throws like rtt(a, b), and on a non-member hint.
  [[nodiscard]] DelayMs rtt(NodeId a, NodeId b, NodeId lca) const;

  /// Shortest path a -> b as a node sequence including both endpoints.
  /// Empty when unreachable; {a} when a == b.
  [[nodiscard]] std::vector<NodeId> path(NodeId a, NodeId b) const;

  /// path() into a caller-owned buffer (cleared first), reusing its capacity
  /// so repeated route lookups stay allocation-free.
  void pathInto(NodeId a, NodeId b, std::vector<NodeId>& out) const;

  /// First hop on the shortest path from `from` towards `to`.
  /// kInvalidNode when unreachable or from == to.
  [[nodiscard]] NodeId nextHop(NodeId from, NodeId to) const;

  [[nodiscard]] std::size_t numNodes() const { return n_; }

  /// Number of source rows: numNodes() in dense mode, the source-set size
  /// in sparse mode, and 0 in tree mode (the tree metric has no rows).
  [[nodiscard]] std::size_t numRows() const;

  /// True when queries from `v` (distance/rtt/path/nextHop first argument)
  /// are answerable: dense mode or v in the sparse source set; tree members
  /// in tree mode.
  [[nodiscard]] bool hasSourceRow(NodeId v) const;

  /// True when this is the tree metric over `tree` itself (the tree-metric
  /// constructor was given this object; a copy of it does not count).
  [[nodiscard]] bool isTreeMetricOver(const MulticastTree& tree) const {
    return mode_ == Mode::kTreeMetric && tree_ == &tree;
  }

  /// The tree metric's LCA index over its tree, for callers that need LCAs
  /// over that same tree (isTreeMetricOver); null in table mode.
  [[nodiscard]] const LcaIndex* treeLcaIndex() const { return lca_.get(); }

 private:
  enum class Mode { kTable, kTreeMetric };

  struct RowRef {
    const DelayMs* dist;
    const NodeId* pred;
  };

  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  void build(const Graph& g, std::span<const NodeId> sources,
             unsigned num_threads);
  void checkNode(NodeId v) const;
  void checkTreeMember(NodeId v) const;
  /// The dist/pred row for `src`; throws when `src` has none.
  [[nodiscard]] RowRef rowRef(NodeId src) const;
  /// wd(a) + wd(b) - 2 * wd(l), with l the first common router of a and b
  /// (the callers check that a and b are members).
  [[nodiscard]] DelayMs treeDistance(NodeId a, NodeId b, NodeId l) const;

  Mode mode_ = Mode::kTable;
  std::size_t n_ = 0;
  std::size_t rows_ = 0;
  // NodeId -> start of its row in dist_/pred_ (row * n_), kNoRow when the
  // node has no row.  Dense tables fill it too, so an agent-row query costs
  // the same one lookup as a dense one.
  std::vector<std::size_t> row_start_;
  // Row-major [row][node] tables (table mode).
  std::vector<DelayMs> dist_;
  std::vector<NodeId> pred_;  // predecessor of node on the path from source

  // Tree-metric mode: delay-weighted depth per memberIndex plus an LCA
  // index owned here (unique_ptr keeps LcaIndex out of this header).
  const MulticastTree* tree_ = nullptr;
  std::unique_ptr<LcaIndex> lca_;
  std::vector<DelayMs> wdepth_;
};

}  // namespace rmrn::net
