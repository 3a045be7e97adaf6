#include "net/lca.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace rmrn::net {

namespace {

constexpr std::uint32_t kBlockBits = 5;
constexpr std::uint32_t kBlock = 1u << kBlockBits;  // one bit per position

}  // namespace

LcaIndex::LcaIndex(const MulticastTree& tree) : tree_(tree) {
  const std::vector<NodeId>& order = tree_.members();
  const auto n = static_cast<std::uint32_t>(order.size());
  parent_pos_.assign(n, 0);
  depth_.assign(n, 0);
  // Preorder puts every parent before its children.
  for (std::uint32_t i = 1; i < n; ++i) {
    parent_pos_[i] =
        static_cast<std::uint32_t>(tree_.memberIndex(tree_.parent(order[i])));
    depth_[i] = depth_[parent_pos_[i]] + 1;
  }

  stack_.assign(n, 0);
  blocks_ = (n + kBlock - 1) / kBlock;
  const auto levels = static_cast<std::uint32_t>(std::bit_width(blocks_));
  sparse_.assign(static_cast<std::size_t>(levels) * blocks_, 0);
  for (std::uint32_t b = 0; b < blocks_; ++b) {
    const std::uint32_t start = b * kBlock;
    const std::uint32_t end = std::min(n, start + kBlock);
    std::uint32_t live = 0;  // the stack of the positions seen so far
    for (std::uint32_t i = start; i < end; ++i) {
      while (live != 0) {
        const auto top = static_cast<std::uint32_t>(std::bit_width(live)) - 1;
        if (parent_pos_[start + top] < parent_pos_[i]) break;
        live ^= 1u << top;
      }
      live |= 1u << (i - start);
      stack_[i] = live;
    }
    sparse_[b] = blockMin(start, end - 1);
  }
  for (std::uint32_t l = 1; l < levels; ++l) {
    const std::uint32_t half = 1u << (l - 1);
    const std::uint32_t* below = &sparse_[(l - 1) * blocks_];
    std::uint32_t* level = &sparse_[l * blocks_];
    for (std::uint32_t b = 0; b + 2 * half <= blocks_; ++b) {
      level[b] = std::min(below[b], below[b + half]);
    }
  }

  // Counting sort by depth; the preorder scan keeps each depth ascending.
  const HopCount max_depth =
      n == 0 ? 0 : *std::max_element(depth_.begin(), depth_.end());
  depth_start_.assign(static_cast<std::size_t>(max_depth) + 2, 0);
  for (std::uint32_t i = 0; i < n; ++i) ++depth_start_[depth_[i] + 1];
  for (std::size_t d = 1; d < depth_start_.size(); ++d) {
    depth_start_[d] += depth_start_[d - 1];
  }
  by_depth_.assign(n, 0);
  std::vector<std::uint32_t> next(depth_start_.begin(), depth_start_.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i) by_depth_[next[depth_[i]]++] = i;
}

std::uint32_t LcaIndex::blockMin(std::uint32_t l, std::uint32_t r) const {
  const std::uint32_t start = r & ~(kBlock - 1);
  // The stack's lowest entry at or after l is the minimum over [l, r].
  const std::uint32_t from_l = stack_[r] & (~0u << (l - start));
  const auto offset = static_cast<std::uint32_t>(std::countr_zero(from_l));
  return parent_pos_[start + offset];
}

std::uint32_t LcaIndex::lcaPos(std::uint32_t i, std::uint32_t j) const {
  if (i == j) return i;
  if (i > j) std::swap(i, j);
  // The minimum parent position over (i, j].
  const std::uint32_t l = i + 1;
  const std::uint32_t bl = l >> kBlockBits;
  const std::uint32_t br = j >> kBlockBits;
  if (bl == br) return blockMin(l, j);
  std::uint32_t best = std::min(blockMin(l, (bl << kBlockBits) + kBlock - 1),
                                blockMin(br << kBlockBits, j));
  if (bl + 1 < br) {
    const std::uint32_t first = bl + 1;
    const std::uint32_t count = br - first;
    const auto level = static_cast<std::uint32_t>(std::bit_width(count)) - 1;
    const std::uint32_t* row = &sparse_[level * blocks_];
    best = std::min({best, row[first], row[br - (1u << level)]});
  }
  return best;
}

std::uint32_t LcaIndex::memberLcaPos(NodeId a, NodeId b) const {
  const std::uint32_t pos =
      lcaPos(static_cast<std::uint32_t>(tree_.memberIndex(a)),
             static_cast<std::uint32_t>(tree_.memberIndex(b)));
  RMRN_AUDIT_CHECK(tree_.members()[pos] == tree_.firstCommonRouter(a, b),
                   "LCA index disagrees with the O(depth) parent walk");
  return pos;
}

NodeId LcaIndex::lca(NodeId a, NodeId b) const {
  return tree_.members()[memberLcaPos(a, b)];
}

HopCount LcaIndex::lcaDepth(NodeId a, NodeId b) const {
  return depth_[memberLcaPos(a, b)];
}

NodeId LcaIndex::ancestor(NodeId v, HopCount steps) const {
  const auto i = static_cast<std::uint32_t>(tree_.memberIndex(v));
  if (steps > depth_[i]) return kInvalidNode;
  const HopCount target = depth_[i] - steps;
  const auto first = by_depth_.begin() + depth_start_[target];
  const auto last = by_depth_.begin() + depth_start_[target + 1];
  const std::uint32_t pos = *(std::upper_bound(first, last, i) - 1);
  RMRN_AUDIT_CHECK(
      depth_[pos] == target && tree_.isAncestor(tree_.members()[pos], v),
      "ancestor: the search left v's root path");
  return tree_.members()[pos];
}

void LcaIndex::rootPathSubtrees(NodeId v, std::vector<Subtree>& out) const {
  auto pos = static_cast<std::uint32_t>(tree_.memberIndex(v));
  const HopCount depth = depth_[pos];
  out.resize(static_cast<std::size_t>(depth) + 1);
  for (HopCount d = depth;; --d) {
    out[d].begin = pos;
    if (d == 0) break;
    pos = parent_pos_[pos];
  }
  out[0].end = static_cast<std::uint32_t>(parent_pos_.size());
  // A subtree ends at the next member no deeper than its root: the next
  // node at its own depth, unless the parent's subtree ends first.
  for (HopCount d = 1; d <= depth; ++d) {
    const auto first = by_depth_.begin() + depth_start_[d];
    const auto last = by_depth_.begin() + depth_start_[d + 1];
    const auto next = std::upper_bound(first, last, out[d].begin);
    out[d].end =
        next == last ? out[d - 1].end : std::min(out[d - 1].end, *next);
  }
}

}  // namespace rmrn::net
