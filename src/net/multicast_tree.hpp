// Rooted multicast tree (a spanning subtree of the backbone graph).
//
// The source sits at the root, clients at the leaves (paper §2.1).  The tree
// provides the quantities the RP algorithm needs: depths (the paper's DS hop
// counts), first common routers (the paper's R_j, i.e. the lowest common
// ancestor), subtree membership for repair multicasts, and root paths.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/types.hpp"

namespace rmrn::net {

class MulticastTree {
 public:
  MulticastTree() = default;

  /// Builds a tree from a parent array.  `parent[v] == kInvalidNode` for the
  /// root and for nodes that are not members of the tree.  Exactly the nodes
  /// reachable from `root` by parent-chasing are members.  Throws
  /// std::invalid_argument on cycles, an out-of-range root, or a parent array
  /// referencing out-of-range nodes.
  MulticastTree(NodeId root, std::vector<NodeId> parent);

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] std::size_t numMembers() const { return members_.size(); }

  /// All member nodes in preorder (root first).
  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }

  [[nodiscard]] bool contains(NodeId v) const {
    return v < member_.size() && member_[v];
  }

  /// Parent of `v` on the tree; kInvalidNode for the root.  Throws if `v` is
  /// not a member.
  [[nodiscard]] NodeId parent(NodeId v) const {
    checkMember(v);
    return parent_[v];
  }

  /// Children of `v`.  Throws if `v` is not a member.
  [[nodiscard]] std::span<const NodeId> children(NodeId v) const;

  /// Hop count from the root (the paper's DS value).  Throws on non-members.
  [[nodiscard]] HopCount depth(NodeId v) const {
    checkMember(v);
    return depth_[v];
  }

  /// The paper's R_j: first common router of `a` and `b` on the tree, i.e.
  /// their lowest common ancestor.  Throws on non-members.
  [[nodiscard]] NodeId firstCommonRouter(NodeId a, NodeId b) const;

  /// True iff `anc` lies on the root path of `desc` (a node is its own
  /// ancestor).  Throws on non-members.
  [[nodiscard]] bool isAncestor(NodeId anc, NodeId desc) const;

  /// Nodes on the path root -> v, inclusive.
  [[nodiscard]] std::vector<NodeId> pathFromRoot(NodeId v) const;

  /// Members with no children.  With the root excluded these are the
  /// clients of the multicast group (paper §2.1 puts clients at leaves).
  [[nodiscard]] std::vector<NodeId> leaves() const;

  /// All members of the subtree rooted at `v` (preorder, v first).
  [[nodiscard]] std::vector<NodeId> subtreeMembers(NodeId v) const;

  /// Number of tree links (= numMembers() - 1 for a non-empty tree).
  [[nodiscard]] std::size_t numLinks() const;

  /// Dense index of a member in members() order; used to index per-member
  /// arrays such as loss-draw vectors.  Throws on non-members.
  [[nodiscard]] std::size_t memberIndex(NodeId v) const {
    checkMember(v);
    return member_index_[v];
  }

 private:
  // The accessors above run on every flood crossing and planner step, so
  // the membership test stays inline and only the throw is out of line.
  void checkMember(NodeId v) const {
    if (!contains(v)) throwNotMember(v);
  }
  [[noreturn, gnu::cold]] static void throwNotMember(NodeId v);

  NodeId root_ = kInvalidNode;
  std::vector<NodeId> parent_;                 // indexed by NodeId
  std::vector<std::vector<NodeId>> children_;  // indexed by NodeId
  std::vector<HopCount> depth_;                // indexed by NodeId
  std::vector<bool> member_;                   // indexed by NodeId
  std::vector<std::size_t> member_index_;      // indexed by NodeId
  std::vector<NodeId> members_;                // preorder
};

}  // namespace rmrn::net
