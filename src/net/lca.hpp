// Lowest-common-ancestor index over a MulticastTree: O(n) memory, O(1)
// lca() and O(log n) ancestor().
//
// MulticastTree::firstCommonRouter walks parents in O(depth); planning runs
// k clients x k peers LCA queries, so RpPlanner, ShardPlanner and the
// tree-metric Routing use this index instead.
//
// It replaced a binary-lifting table (log2(depth) words per member, walked
// through MulticastTree::memberIndex at every step).  lca() is a
// range-minimum query over the preorder (members() order).  For members at
// preorder positions i < j, every node at a position in (i, j] lies
// strictly below lca, and the child of lca on j's root path is among them,
// so the smallest *parent* preorder position over (i, j] is lca's own
// position.  The minimum is answered in the style of Bender and
// Farach-Colton: 32-position blocks, a sparse table over the block minima
// (about (n/32) log2(n/32) words), and one 32-bit stack mask per position
// for the in-block part.  Memory is about 16-18 bytes per member with the
// per-depth lists below; a query checks membership once per argument and
// then reads a handful of flat words.
//
// ancestor() binary-searches the preorder positions of the target depth:
// v's ancestor at depth t is the last depth-t node at or before v, so it
// costs O(log n).  rootPathSubtrees() and meetDepth() answer "where does w
// meet v's root path" for many w against one v without any per-w lookup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/multicast_tree.hpp"
#include "net/types.hpp"

namespace rmrn::net {

class LcaIndex {
 public:
  /// Builds the index in O(n).  The tree must outlive the index.
  explicit LcaIndex(const MulticastTree& tree);

  /// Lowest common ancestor (the paper's first common router).  Agrees with
  /// MulticastTree::firstCommonRouter on all member pairs; throws
  /// std::invalid_argument on non-members.
  [[nodiscard]] NodeId lca(NodeId a, NodeId b) const;

  /// Depth of the LCA — the paper's DS value for a (client, peer) pair.
  [[nodiscard]] HopCount lcaDepth(NodeId a, NodeId b) const;

  /// The ancestor of `v` exactly `steps` levels up; kInvalidNode when the
  /// walk leaves the tree.  Throws on non-members.
  [[nodiscard]] NodeId ancestor(NodeId v, HopCount steps) const;

  /// The members of one subtree: preorder positions [begin, end).
  struct Subtree {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// The subtrees of v's ancestors into `out` (resized): out[d] is the
  /// subtree of the ancestor at depth d.  O(depth(v) log n).  Throws on
  /// non-members.
  void rootPathSubtrees(NodeId v, std::vector<Subtree>& out) const;

  /// lcaDepth(w, v) for the v whose rootPathSubtrees() is `path`, from w's
  /// preorder position alone (MulticastTree::memberIndex): the deepest
  /// subtree on the path holding it.  The subtrees nest, so a binary search
  /// over the path finds it without reading any per-member table.
  [[nodiscard]] static HopCount meetDepth(std::span<const Subtree> path,
                                          std::size_t pos) {
    std::size_t lo = 0;  // path[0] holds every member
    std::size_t hi = path.size();
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      if (path[mid].begin <= pos && pos < path[mid].end) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return static_cast<HopCount>(lo);
  }

 private:
  /// Preorder position of lca(members()[i], members()[j]).
  [[nodiscard]] std::uint32_t lcaPos(std::uint32_t i, std::uint32_t j) const;
  /// Preorder position of lca(a, b); throws on non-members.
  [[nodiscard]] std::uint32_t memberLcaPos(NodeId a, NodeId b) const;
  /// Smallest parent_pos_ over positions [l, r] of one block.
  [[nodiscard]] std::uint32_t blockMin(std::uint32_t l, std::uint32_t r) const;

  const MulticastTree& tree_;
  // Per preorder position: the parent's position (0 at the root, which no
  // query range contains) and the depth.
  std::vector<std::uint32_t> parent_pos_;
  std::vector<HopCount> depth_;
  // Bit k of stack_[i] is set when position p = (i's block start + k) <= i
  // holds a smaller parent_pos_ than every position in (p, i].
  std::vector<std::uint32_t> stack_;
  // Level-major sparse table over block minima: sparse_[l * blocks + b] is
  // the minimum over blocks [b, b + 2^l).
  std::vector<std::uint32_t> sparse_;
  std::uint32_t blocks_ = 0;
  // Preorder positions grouped by depth, ascending within each depth;
  // depth d spans [depth_start_[d], depth_start_[d + 1]).
  std::vector<std::uint32_t> by_depth_;
  std::vector<std::uint32_t> depth_start_;
};

}  // namespace rmrn::net
