#include "net/routing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/lca.hpp"
#include "net/multicast_tree.hpp"
#include "util/check.hpp"
#include "util/quad_heap.hpp"
#include "util/thread_pool.hpp"

namespace rmrn::net {

namespace {

constexpr DelayMs kInf = std::numeric_limits<DelayMs>::infinity();

// A Dijkstra heap entry: the tentative distance's IEEE bit image and the
// node.  Distances are sums of positive link delays, so unsigned order on
// the bits is numeric order, and the heap pops in (distance, node) order.
struct HeapEntry {
  std::uint64_t order;  // bit image of the distance
  std::uint64_t key;    // node
};

void dijkstraFrom(const CsrAdjacency& g, NodeId src, DelayMs* dist,
                  NodeId* pred) {
  // One heap per thread, kept across rows: each lane of a parallel table
  // build reuses its own.
  thread_local std::vector<HeapEntry> heap;
  heap.clear();
  dist[src] = 0.0;
  heap.push_back({std::bit_cast<std::uint64_t>(0.0), src});
  while (!heap.empty()) {
    const HeapEntry top = heap.front();
    util::quad_heap::popRoot(heap);
    const DelayMs d = std::bit_cast<DelayMs>(top.order);
    const auto v = static_cast<NodeId>(top.key);
    if (d > dist[v]) continue;  // stale entry
    for (const HalfEdge& e : g.neighbors(v)) {
      const DelayMs nd = d + e.delay;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        pred[e.to] = v;
        heap.push_back({std::bit_cast<std::uint64_t>(nd), e.to});
        util::quad_heap::siftUp(heap.data(), heap.size() - 1);
      }
    }
  }
}

}  // namespace

Routing::Routing(const Graph& g, unsigned num_threads) : n_(g.numNodes()) {
  build(g, {}, num_threads);
}

Routing::Routing(const Graph& g, std::span<const NodeId> sources,
                 unsigned num_threads)
    : n_(g.numNodes()) {
  build(g, sources, num_threads);
}

Routing::Routing(const Graph& g, const MulticastTree& tree)
    : mode_(Mode::kTreeMetric), n_(g.numNodes()), tree_(&tree) {
  lca_ = std::make_unique<LcaIndex>(tree);
  wdepth_.resize(tree.numMembers());
  // members() is preorder, so every parent's weighted depth is already
  // final when its child is visited.
  for (const NodeId v : tree.members()) {
    const NodeId p = tree.parent(v);
    if (p == kInvalidNode) {
      wdepth_[tree.memberIndex(v)] = 0.0;
      continue;
    }
    const std::optional<DelayMs> delay = g.edgeDelay(v, p);
    if (!delay) {
      throw std::invalid_argument("Routing: tree edge {" + std::to_string(p) +
                                  ", " + std::to_string(v) +
                                  "} missing from graph");
    }
    wdepth_[tree.memberIndex(v)] = wdepth_[tree.memberIndex(p)] + *delay;
  }
}

// Out of line: LcaIndex is incomplete in the header.
Routing::~Routing() = default;

void Routing::build(const Graph& g, std::span<const NodeId> sources,
                    unsigned num_threads) {
  rows_ = sources.empty() ? n_ : sources.size();
  row_start_.assign(n_, kNoRow);
  for (std::size_t row = 0; row < rows_; ++row) {
    const NodeId src =
        sources.empty() ? static_cast<NodeId>(row) : sources[row];
    if (src >= n_) {
      throw std::invalid_argument("Routing: source " + std::to_string(src) +
                                  " out of range");
    }
    if (row_start_[src] != kNoRow) {
      throw std::invalid_argument("Routing: duplicate source " +
                                  std::to_string(src));
    }
    row_start_[src] = row * n_;
  }
  dist_.assign(rows_ * n_, kInf);
  pred_.assign(rows_ * n_, kInvalidNode);

  const CsrAdjacency csr(g);
  const auto run_row = [&](std::size_t row) {
    const NodeId src =
        sources.empty() ? static_cast<NodeId>(row) : sources[row];
    dijkstraFrom(csr, src, &dist_[row * n_], &pred_[row * n_]);
  };
  const unsigned threads = util::resolveThreadCount(num_threads);
  if (threads <= 1 || rows_ <= 1) {
    for (std::size_t row = 0; row < rows_; ++row) run_row(row);
  } else {
    util::ThreadPool pool(threads);
    pool.parallelFor(0, rows_, run_row);
  }
  for (std::size_t row = 0; row < rows_; ++row) {
    [[maybe_unused]] const NodeId src =
        sources.empty() ? static_cast<NodeId>(row) : sources[row];
    RMRN_ENSURE(dist_[row * n_ + src] == 0.0,
                "routing table: self-distance must be zero");
  }
}

void Routing::checkNode(NodeId v) const {
  if (v >= n_) {
    throw std::invalid_argument("Routing: node " + std::to_string(v) +
                                " out of range");
  }
}

void Routing::checkTreeMember(NodeId v) const {
  checkNode(v);
  if (!tree_->contains(v)) {
    throw std::out_of_range("Routing: node " + std::to_string(v) +
                            " is not a tree member (tree-metric mode)");
  }
}

Routing::RowRef Routing::rowRef(NodeId src) const {
  checkNode(src);
  const std::size_t start = row_start_[src];
  if (start == kNoRow) {
    throw std::out_of_range("Routing: no table row for source " +
                            std::to_string(src) + " (sparse mode)");
  }
  return {&dist_[start], &pred_[start]};
}

std::size_t Routing::numRows() const {
  return mode_ == Mode::kTable ? rows_ : 0;
}

bool Routing::hasSourceRow(NodeId v) const {
  if (v >= n_) return false;
  return mode_ == Mode::kTable ? row_start_[v] != kNoRow : tree_->contains(v);
}

DelayMs Routing::treeDistance(NodeId a, NodeId b, NodeId l) const {
  return wdepth_[tree_->memberIndex(a)] + wdepth_[tree_->memberIndex(b)] -
         2.0 * wdepth_[tree_->memberIndex(l)];
}

DelayMs Routing::distance(NodeId a, NodeId b) const {
  if (mode_ == Mode::kTreeMetric) {
    checkTreeMember(a);
    checkTreeMember(b);
    return treeDistance(a, b, lca_->lca(a, b));
  }
  const RowRef row = rowRef(a);
  checkNode(b);
  return row.dist[b];
}

namespace {

// Symmetry only holds up to rounding: the two Dijkstra runs sum the same
// link delays in opposite orders, and FP addition is not associative.
[[maybe_unused]] bool nearlyEqualDelay(DelayMs x, DelayMs y) {
  if (x == y) return true;  // covers both-infinite and exact matches
  const DelayMs scale = std::max({std::abs(x), std::abs(y), 1.0});
  return std::abs(x - y) <= 1e-9 * scale;
}

}  // namespace

DelayMs Routing::rtt(NodeId a, NodeId b) const {
  // Link-state routing over an undirected backbone is symmetric (paper
  // §3.1 reads RTTs straight off the tables); re-derive b -> a when that row
  // exists and cross-check.  Dense tables always have it; agent-row tables
  // for every agent pair.  The tree metric is symmetric by construction.
  RMRN_AUDIT_CHECK(!hasSourceRow(b) || nearlyEqualDelay(distance(a, b),
                                                        distance(b, a)),
                   "routing symmetry: d(a,b) != d(b,a)");
  return 2.0 * distance(a, b);
}

DelayMs Routing::rtt(NodeId a, NodeId b, NodeId lca) const {
  if (mode_ != Mode::kTreeMetric) return rtt(a, b);
  checkTreeMember(a);
  checkTreeMember(b);
  RMRN_AUDIT_CHECK(lca == lca_->lca(a, b),
                   "rtt: the hint is not the first common router");
  return 2.0 * treeDistance(a, b, lca);
}

std::vector<NodeId> Routing::path(NodeId a, NodeId b) const {
  std::vector<NodeId> result;
  pathInto(a, b, result);
  return result;
}

void Routing::pathInto(NodeId a, NodeId b, std::vector<NodeId>& out) const {
  out.clear();
  if (mode_ == Mode::kTreeMetric) {
    checkTreeMember(a);
    checkTreeMember(b);
    const NodeId l = lca_->lca(a, b);
    for (NodeId cur = a; cur != l; cur = tree_->parent(cur)) {
      out.push_back(cur);
    }
    out.push_back(l);
    const std::size_t down_from = out.size();
    for (NodeId cur = b; cur != l; cur = tree_->parent(cur)) {
      out.push_back(cur);
    }
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(down_from),
                 out.end());
    return;
  }
  const RowRef row = rowRef(a);
  checkNode(b);
  if (row.dist[b] == kInf) return;
  for (NodeId cur = b; cur != kInvalidNode; cur = row.pred[cur]) {
    out.push_back(cur);
    if (cur == a) break;
  }
  std::reverse(out.begin(), out.end());
}

NodeId Routing::nextHop(NodeId from, NodeId to) const {
  if (mode_ == Mode::kTreeMetric) {
    checkTreeMember(from);
    checkTreeMember(to);
    if (from == to) return kInvalidNode;
    const NodeId l = lca_->lca(from, to);
    if (from != l) return tree_->parent(from);
    // from is an ancestor of to: step down into to's branch.
    NodeId cur = to;
    while (tree_->parent(cur) != from) cur = tree_->parent(cur);
    return cur;
  }
  const RowRef row = rowRef(from);
  checkNode(to);
  if (from == to) return kInvalidNode;
  if (row.dist[to] == kInf) {
    return kInvalidNode;
  }
  // Walk predecessors from `to` back until the node whose predecessor is
  // `from`.
  NodeId cur = to;
  while (row.pred[cur] != from) cur = row.pred[cur];
  return cur;
}

}  // namespace rmrn::net
