#include "net/multicast_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace rmrn::net {

MulticastTree::MulticastTree(NodeId root, std::vector<NodeId> parent)
    : root_(root), parent_(std::move(parent)) {
  const std::size_t n = parent_.size();
  if (root_ >= n) {
    throw std::invalid_argument("MulticastTree: root out of range");
  }
  if (parent_[root_] != kInvalidNode) {
    throw std::invalid_argument("MulticastTree: root must have no parent");
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (parent_[v] != kInvalidNode && parent_[v] >= n) {
      throw std::invalid_argument("MulticastTree: parent of node " +
                                  std::to_string(v) + " out of range");
    }
    if (parent_[v] == static_cast<NodeId>(v)) {
      throw std::invalid_argument("MulticastTree: node is its own parent");
    }
  }

  children_.assign(n, {});
  for (std::size_t v = 0; v < n; ++v) {
    if (parent_[v] != kInvalidNode) {
      children_[parent_[v]].push_back(static_cast<NodeId>(v));
    }
  }
  for (auto& kids : children_) std::sort(kids.begin(), kids.end());

  // Preorder walk from the root defines membership, depths and detects that
  // the parent array is acyclic over the reachable part.
  member_.assign(n, false);
  depth_.assign(n, 0);
  member_index_.assign(n, 0);
  members_.clear();
  std::vector<NodeId> stack{root_};
  member_[root_] = true;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    member_index_[v] = members_.size();
    members_.push_back(v);
    for (const NodeId c : children_[v]) {
      if (member_[c]) {
        throw std::invalid_argument("MulticastTree: cycle involving node " +
                                    std::to_string(c));
      }
      member_[c] = true;
      depth_[c] = depth_[v] + 1;
      stack.push_back(c);
    }
  }

  // Nodes with a parent chain that never reaches the root are non-members;
  // their parent pointers must not point into the tree in a way that created
  // children entries.  Clear children lists of non-members' parents that are
  // themselves non-members is unnecessary (they are unreachable), but a
  // member must not be the child of a non-member chain: detect stray parents
  // whose child got marked as member only via the root walk.
  for (std::size_t v = 0; v < n; ++v) {
    if (parent_[v] != kInvalidNode && !member_[parent_[v]] && member_[v]) {
      throw std::invalid_argument(
          "MulticastTree: member node has non-member parent");
    }
  }

  // Parent/depth consistency: every non-root member hangs one hop below a
  // member parent — the DS arithmetic of Lemmas 1-5 rides on these depths.
  for (const NodeId v : members_) {
    if (v == root_) {
      RMRN_ENSURE(depth_[v] == 0, "tree: root must have depth 0");
      continue;
    }
    RMRN_ENSURE(member_[parent_[v]], "tree: member parent must be a member");
    RMRN_ENSURE(depth_[v] == depth_[parent_[v]] + 1,
                "tree: depth must be parent depth + 1");
  }
}

void MulticastTree::throwNotMember(NodeId v) {
  throw std::invalid_argument("MulticastTree: node " + std::to_string(v) +
                              " is not a tree member");
}

std::span<const NodeId> MulticastTree::children(NodeId v) const {
  checkMember(v);
  return children_[v];
}

NodeId MulticastTree::firstCommonRouter(NodeId a, NodeId b) const {
  checkMember(a);
  checkMember(b);
  [[maybe_unused]] const NodeId orig_a = a;
  [[maybe_unused]] const NodeId orig_b = b;
  while (a != b) {
    if (depth_[a] >= depth_[b]) {
      a = parent_[a];
    } else {
      b = parent_[b];
    }
  }
  RMRN_AUDIT_CHECK(isAncestor(a, orig_a) && isAncestor(a, orig_b),
                   "first common router must be an ancestor of both nodes");
  return a;
}

bool MulticastTree::isAncestor(NodeId anc, NodeId desc) const {
  checkMember(anc);
  checkMember(desc);
  while (depth_[desc] > depth_[anc]) desc = parent_[desc];
  return desc == anc;
}

std::vector<NodeId> MulticastTree::pathFromRoot(NodeId v) const {
  checkMember(v);
  std::vector<NodeId> path;
  path.reserve(depth_[v] + 1);
  for (NodeId cur = v; cur != kInvalidNode; cur = parent_[cur]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NodeId> MulticastTree::leaves() const {
  std::vector<NodeId> result;
  for (const NodeId v : members_) {
    if (children_[v].empty()) result.push_back(v);
  }
  return result;
}

std::vector<NodeId> MulticastTree::subtreeMembers(NodeId v) const {
  checkMember(v);
  std::vector<NodeId> result;
  std::vector<NodeId> stack{v};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    result.push_back(cur);
    for (const NodeId c : children_[cur]) stack.push_back(c);
  }
  return result;
}

std::size_t MulticastTree::numLinks() const {
  return members_.empty() ? 0 : members_.size() - 1;
}

}  // namespace rmrn::net
