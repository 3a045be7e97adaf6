#include "core/shard_planner.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace rmrn::core {

namespace {

/// The partition budget, checked before the partition is built (K = 0 would
/// make every client an over-budget singleton).
std::uint32_t checkedBudget(std::uint32_t max_shard_clients) {
  if (max_shard_clients == 0) {
    throw std::invalid_argument("ShardPlanner: shard budget must be >= 1");
  }
  return max_shard_clients;
}

}  // namespace

// rmrn-lint: init-phase
ShardPlanner::ShardPlanner(const net::Topology& topology,
                           const net::Routing& routing,
                           ShardPlannerOptions options)
    : topology_(&topology),
      routing_(&routing),
      options_(std::move(options)),
      partition_(topology.tree, topology.clients,
                 checkedBudget(options_.max_shard_clients)) {
  if (options_.planner.timeout_ms < 0.0) {
    throw std::invalid_argument("ShardPlanner: negative timeout");
  }
  const net::MulticastTree& tree = topology.tree;
  tree_fold_ = routing.isTreeMetricOver(tree);
  if (tree_fold_) {
    lca_ = routing.treeLcaIndex();
  } else {
    own_lca_ = std::make_unique<net::LcaIndex>(tree);
    lca_ = own_lca_.get();
  }
  const std::size_t n = tree.numMembers();
  srtt_.assign(n, 0.0);
  excluded_.assign(n, 0);
  state_.resize(n);
  for (const net::NodeId banned : options_.planner.excluded_peers) {
    if (tree.contains(banned)) excluded_[idx(banned)] = 1;
  }

  double max_rtt = 0.0;
  for (const net::NodeId c : topology.clients) {
    const double rtt = routing.rtt(c, topology.source);
    srtt_[idx(c)] = rtt;
    max_rtt = std::max(max_rtt, rtt);
    state_[idx(c)].active = true;
  }
  if (options_.planner.timeout_ms == 0.0) {
    options_.planner.timeout_ms = 2.0 * max_rtt;  // RpPlanner's default t_0
  }
  graph_options_.timeout_ms = options_.planner.timeout_ms;
  graph_options_.per_peer_timeout_factor =
      options_.planner.per_peer_timeout_factor;
  graph_options_.min_timeout_ms = options_.planner.min_timeout_ms;
  graph_options_.cost_model = options_.planner.cost_model;
  graph_options_.allow_direct_source = options_.planner.allow_direct_source;
  graph_options_.max_list_length = options_.planner.max_list_length;

  shard_states_.resize(partition_.numSlots());
  in_changed_.assign(partition_.numSlots(), 0);
  std::vector<std::uint32_t> live;
  live.reserve(partition_.numSlots());
  for (std::uint32_t id = 0; id < partition_.numSlots(); ++id) {
    if (!partition_.isLive(id)) continue;
    live.push_back(id);
    refreshShardState(id);
  }
  bulkBuildExt(live);

  // Shards are planned independently into disjoint per-member slots, so the
  // parallel build is bit-identical to the sequential one.
  const unsigned threads =
      util::resolveThreadCount(options_.planner.num_threads);
  if (threads <= 1 || live.size() <= 1) {
    for (const std::uint32_t id : live) planShard(id, arena_, true);
  } else {
    // Contiguous runs of shards, a few per lane for balance, each with one
    // Arena: scratch is per run, not per shard.
    util::ThreadPool pool(threads);
    const std::size_t runs =
        std::min<std::size_t>(live.size(), 8 * pool.size());
    pool.parallelFor(0, runs, [&](std::size_t r) {
      Arena arena;
      for (std::size_t i = r * live.size() / runs;
           i < (r + 1) * live.size() / runs; ++i) {
        planShard(live[i], arena, true);
      }
    });
  }
  last_replans_ = partition_.numClients();
  last_shards_touched_ = partition_.numShards();

  if (options_.planner.audit) {
    const AuditReport report = auditAll();
    if (!report.ok()) {
      throw std::logic_error("ShardPlanner: plan audit failed\n" +
                             report.summary());
    }
  }
}

std::size_t ShardPlanner::idx(net::NodeId v) const {
  return topology_->tree.memberIndex(v);
}

bool ShardPlanner::eligible(net::NodeId v) const {
  const std::size_t i = idx(v);
  return state_[i].active && !excluded_[i];
}

bool ShardPlanner::repLess(net::NodeId a, net::NodeId b) const {
  return repLess(srtt_[idx(a)], a, b);
}

bool ShardPlanner::repLess(double sa, net::NodeId a, net::NodeId b) const {
  const double sb = srtt_[idx(b)];
  return sa < sb || (sa == sb && a < b);
}

void ShardPlanner::refreshShardState(std::uint32_t id) {
  ShardState& state = shard_states_[id];
  const Shard& shard = partition_.shard(id);
  state.root = shard.root;
  state.root_pos = static_cast<std::uint32_t>(idx(shard.root));
  state.rep = computeRep(shard);
  state.rep_srtt = state.rep == net::kInvalidNode ? 0.0 : srtt_[idx(state.rep)];
}

net::NodeId ShardPlanner::computeRep(const Shard& shard) const {
  net::NodeId best = net::kInvalidNode;
  for (const net::NodeId w : shard.clients) {
    if (!eligible(w)) continue;
    if (best == net::kInvalidNode || repLess(w, best)) best = w;
  }
  return best;
}

void ShardPlanner::offer(TopTwo& top, net::NodeId via, net::NodeId rep) const {
  if (rep != net::kInvalidNode) offer(top, via, rep, srtt_[idx(rep)]);
}

void ShardPlanner::offer(TopTwo& top, net::NodeId via, net::NodeId rep,
                         double rep_srtt) const {
  if (top.best == net::kInvalidNode || repLess(rep_srtt, rep, top.best)) {
    if (top.via != via) {
      top.second = top.best;
      top.via = via;
    }
    top.best = rep;
  } else if (via != top.via && (top.second == net::kInvalidNode ||
                                repLess(rep_srtt, rep, top.second))) {
    top.second = rep;
  }
}

net::NodeId ShardPlanner::branchOffPath(const ShardState& s,
                                        net::HopCount m) const {
  if (s.root_pos == anchor_path_[m].begin) return s.root;
  // The child subtrees of the path node are consecutive preorder ranges, so
  // the root's is the last one starting at or before it.
  const auto first = path_children_.begin() + path_children_start_[m];
  const auto last = path_children_.begin() + path_children_start_[m + 1];
  const auto after = std::upper_bound(
      first, last, s.root_pos,
      [](std::uint32_t pos, const PathChild& c) { return pos < c.pos; });
  return std::prev(after)->node;
}

void ShardPlanner::buildRegionExt(std::uint32_t id,
                                  std::span<const std::uint32_t> region) {
  ShardState& state = shard_states_[id];
  const net::HopCount depth = topology_->tree.depth(state.root);
  // A meeting router is an ancestor of this shard's root, so depths fit in
  // [0, depth]; the top slot is hit only by shards nested under a residual
  // root (their contributions later self-skip in candidate selection for
  // the residual client itself, and compete normally for everyone else).
  // Surviving shards meet this root where they meet the anchor, so they
  // arrive ranked per depth in outside_best_.
  // rmrn-lint: allow(HOT-1) ext table reuses retained capacity; ShardChurnAllocTest pins zero steady-state allocation
  state.ext.assign(depth + 1, net::kInvalidNode);
  std::copy_n(outside_best_.begin(),
              std::min(outside_best_.size(), state.ext.size()),
              state.ext.begin());
  for (const std::uint32_t b : region) {
    const net::NodeId rep = shard_states_[b].rep;
    if (b == id || rep == net::kInvalidNode) continue;
    const net::HopCount ds = lca_->lcaDepth(state.root, shard_states_[b].root);
    net::NodeId& slot = state.ext[ds];
    if (slot == net::kInvalidNode || repLess(rep, slot)) slot = rep;
  }
}

// rmrn-lint: init-phase
void ShardPlanner::bulkBuildExt(const std::vector<std::uint32_t>& live) {
  const net::MulticastTree& tree = topology_->tree;
  const std::size_t n = tree.numMembers();
  // For every tree node: the top two shard representatives whose shard
  // root lies in the node's subtree, by the branch they arrived through (a
  // child node, or the node itself for a shard rooted right there).
  std::vector<TopTwo> top(n);
  for (const std::uint32_t id : live) {
    const ShardState& state = shard_states_[id];
    offer(top[idx(state.root)], state.root, state.rep);
  }
  // members() is preorder (parents first); the reverse walk folds every
  // subtree's best into its parent before the parent itself is read.
  const std::vector<net::NodeId>& order = tree.members();
  for (std::size_t i = order.size(); i-- > 1;) {
    const net::NodeId v = order[i];
    offer(top[idx(tree.parent(v))], v, top[idx(v)].best);
  }

  // Root-path walk per shard: shards meeting this one at depth d are those
  // rooted in subtree(path[d]) but not in the branch that contains this
  // shard (path[d+1]; at the deepest slot, the shard's own root) — so the
  // answer is the best unless it arrived through the excluded branch, then
  // the runner-up.  Ties never arise: repLess is a strict total order, so
  // the result is bit-identical to a pairwise scan.
  std::vector<net::NodeId> path;
  for (const std::uint32_t id : live) {
    ShardState& state = shard_states_[id];
    const net::HopCount depth = tree.depth(state.root);
    path.assign(static_cast<std::size_t>(depth) + 1, net::kInvalidNode);
    net::NodeId t = state.root;
    for (net::HopCount d = depth;; --d) {
      path[d] = t;
      if (d == 0) break;
      t = tree.parent(t);
    }
    state.ext.resize(static_cast<std::size_t>(depth) + 1);
    for (net::HopCount d = 0; d <= depth; ++d) {
      state.ext[d] = top[idx(path[d])].excluding(path[d == depth ? d : d + 1]);
    }
  }
}

void ShardPlanner::buildConsider(std::uint32_t id,
                                 std::vector<net::NodeId>& out) const {
  out.clear();
  for (const net::NodeId w : partition_.shard(id).clients) {
    // rmrn-lint: allow(HOT-1) caller-owned scratch, retained capacity; ShardChurnAllocTest pins zero steady-state allocation
    if (!excluded_[idx(w)]) out.push_back(w);
  }
  for (const net::NodeId rep : shard_states_[id].ext) {
    // rmrn-lint: allow(HOT-1) caller-owned scratch, retained capacity; ShardChurnAllocTest pins zero steady-state allocation
    if (rep != net::kInvalidNode) out.push_back(rep);
  }
}

bool ShardPlanner::planClient(net::NodeId u,
                              std::span<const net::NodeId> consider,
                              Arena& arena, bool force) {
  selectCandidatesInto(u, topology_->tree, *lca_, *routing_, consider,
                       arena.cand, arena.tmp);
  return adoptCandidates(u, arena, force);
}

bool ShardPlanner::adoptCandidates(net::NodeId u, Arena& arena, bool force) {
  ClientState& st = state_[idx(u)];
  if (!force && st.planned && arena.tmp == st.candidates) return false;
  // rmrn-lint: allow(HOT-1) per-client list keeps its capacity across replans; ShardChurnAllocTest pins zero steady-state allocation
  st.candidates.assign(arena.tmp.begin(), arena.tmp.end());
  replanStrategy(u, st, arena.plan);
  return true;
}

void ShardPlanner::replanStrategy(net::NodeId u, ClientState& st,
                                  PlanScratch& plan) {
  searchMinimalDelayInto(topology_->tree.depth(u), st.candidates,
                         srtt_[idx(u)], graph_options_, plan, st.strategy);
  RMRN_ENSURE(std::isfinite(st.strategy.expected_delay_ms) &&
                  st.strategy.expected_delay_ms >= 0.0,
              "shard planner: emitted delay must be finite and non-negative");
  st.planned = true;
}

namespace {

/// Position of the class at depth `ds` in a descending-DS candidate list
/// (or where it would be inserted).
std::vector<Candidate>::iterator classSlot(std::vector<Candidate>& list,
                                           net::HopCount ds) {
  return std::lower_bound(
      list.begin(), list.end(), ds,
      [](const Candidate& c, net::HopCount d) { return c.ds > d; });
}

}  // namespace

std::size_t ShardPlanner::planShard(std::uint32_t id, Arena& arena,
                                    bool force) {
  std::size_t replans = 0;
  if (!tree_fold_) {
    buildConsider(id, arena.consider);
    for (const net::NodeId u : partition_.shard(id).clients) {
      replans += planClient(u, arena.consider, arena, force) ? 1 : 0;
    }
    return replans;
  }
  foldShard(id, arena);
  for (const net::NodeId u : partition_.shard(id).clients) {
    foldCandidates(id, u, arena);
    RMRN_AUDIT_CHECK(probeAgrees(id, u, arena),
                     "shard fold: candidates differ from the probe path");
    replans += adoptCandidates(u, arena, force) ? 1 : 0;
  }
  return replans;
}

void ShardPlanner::foldShard(std::uint32_t id, Arena& arena) const {
  const net::MulticastTree& tree = topology_->tree;
  const Shard& shard = partition_.shard(id);
  // The root's subtree is one preorder range starting at the root, and
  // every member lies in it, so the fold spans the range's prefix up to
  // the last member.  A residual singleton spans its root alone.
  const std::size_t base = idx(shard.root);
  std::size_t span = 1;
  for (const net::NodeId c : shard.clients) {
    span = std::max(span, idx(c) - base + 1);
  }
  // rmrn-lint: allow(HOT-1) per-worker scratch sized to the shard's subtree, retained capacity; ShardChurnAllocTest pins zero steady-state allocation
  arena.fold.assign(span, TopTwo{});
  for (const net::NodeId c : shard.clients) {
    if (!excluded_[idx(c)]) offer(arena.fold[idx(c) - base], c, c);
  }
  // Reverse preorder folds every node's best into its parent before the
  // parent is read, as bulkBuildExt does over the whole tree.
  const std::vector<net::NodeId>& order = tree.members();
  for (std::size_t i = span; i-- > 1;) {
    const net::NodeId v = order[base + i];
    offer(arena.fold[idx(tree.parent(v)) - base], v, arena.fold[i].best);
  }
  // rmrn-lint: allow(HOT-1) per-worker scratch of root depth, retained capacity; ShardChurnAllocTest pins zero steady-state allocation
  arena.path.resize(static_cast<std::size_t>(tree.depth(shard.root)) + 1);
  net::NodeId t = shard.root;
  for (std::size_t d = arena.path.size(); d-- > 0; t = tree.parent(t)) {
    arena.path[d] = t;
  }
}

void ShardPlanner::foldCandidates(std::uint32_t id, net::NodeId u,
                                  Arena& arena) const {
  const net::MulticastTree& tree = topology_->tree;
  const ShardState& state = shard_states_[id];
  const std::size_t base = state.root_pos;
  const net::HopCount root_depth = tree.depth(state.root);
  std::vector<Candidate>& out = arena.tmp;
  out.clear();
  // `router` is lca(u, w): the fold walk and the ext table both know it.
  const auto add = [&](net::NodeId w, net::HopCount ds, net::NodeId router) {
    if (w == net::kInvalidNode) return;
    // rmrn-lint: allow(HOT-1) per-worker list, retained capacity; ShardChurnAllocTest pins zero steady-state allocation
    out.push_back(Candidate{w, ds, routing_->rtt(u, w, router)});
  };
  // Inside the shard, u's class at ancestor a is every member folded at a
  // outside u's own branch; under the tree metric its (source RTT, id)
  // minimum is the class winner (classBefore).  Walking up lists the
  // classes in descending DS.  No ext entry joins them: one at the root's
  // depth comes from shards nested under the root, which only a residual
  // singleton has, and its one member is the root itself.
  net::HopCount ds = tree.depth(u);
  for (net::NodeId branch = u; branch != state.root;) {
    const net::NodeId a = tree.parent(branch);
    --ds;
    add(arena.fold[idx(a) - base].excluding(branch), ds, a);
    branch = a;
  }
  // Above the root every member shares one branch, so each class there is
  // exactly its ext entry.
  for (net::HopCount d = root_depth; d-- > 0;) {
    add(state.ext[d], d, arena.path[d]);
  }
}

bool ShardPlanner::probeAgrees(std::uint32_t id, net::NodeId u,
                               Arena& arena) const {
  buildConsider(id, arena.consider);
  selectCandidatesInto(u, topology_->tree, *lca_, *routing_, arena.consider,
                       arena.cand, arena.probe);
  return arena.probe == arena.tmp;
}

std::size_t ShardPlanner::patchChurnedShard(std::uint32_t id, net::NodeId v,
                                            bool joined) {
  // The shard's consideration set changed by exactly v, so by Lemma 4 only
  // the class v falls into can change, in classBefore order.
  bool have_consider = false;
  const auto reselect = [&](net::NodeId u) {
    if (!have_consider) buildConsider(id, arena_.consider);
    have_consider = true;
    return planClient(u, arena_.consider, arena_, false);
  };
  const auto source_rtt = [this](net::NodeId w) { return srtt_[idx(w)]; };
  const bool v_is_peer = !excluded_[idx(v)];
  std::size_t replans = 0;
  for (const net::NodeId u : partition_.shard(id).clients) {
    ClientState& st = state_[idx(u)];
    if (!st.planned) {  // the joiner itself
      replans += reselect(u) ? 1 : 0;
      continue;
    }
    if (!v_is_peer) continue;
    const net::NodeId router = lca_->lca(u, v);
    if (router == u) continue;  // v in u's own subtree: never a candidate
    const net::HopCount ds = topology_->tree.depth(router);
    const auto it = classSlot(st.candidates, ds);
    const bool has = it != st.candidates.end() && it->ds == ds;
    if (!joined) {
      if (has && it->peer == v) replans += reselect(u) ? 1 : 0;
      continue;
    }
    const Candidate c{v, ds, routing_->rtt(u, v, router)};
    if (has && !classBefore(c, *it, source_rtt)) continue;
    replans += patchClass(u, st, it, c) ? 1 : 0;
  }
  return replans;
}

std::size_t ShardPlanner::patchImporter(std::uint32_t x, net::HopCount ds,
                                        net::NodeId winner) {
  // Every member lies under the shard root, so for ds above the root the
  // class at ds holds exactly the ext entry.  At the root's own depth
  // (shards nested under a residual root) the class mixes, so reselect.
  const net::NodeId root = shard_states_[x].root;
  const net::HopCount root_depth = topology_->tree.depth(root);
  if (ds == root_depth) return planShard(x, arena_, false);
  const net::NodeId router = lca_->ancestor(root, root_depth - ds);
  bool have_consider = false;
  std::size_t replans = 0;
  for (const net::NodeId u : partition_.shard(x).clients) {
    ClientState& st = state_[idx(u)];
    if (!st.planned) {
      if (!have_consider) buildConsider(x, arena_.consider);
      have_consider = true;
      replans += planClient(u, arena_.consider, arena_, false) ? 1 : 0;
      continue;
    }
    const Candidate c{winner, ds,
                      winner == net::kInvalidNode
                          ? 0.0
                          : routing_->rtt(u, winner, router)};
    replans += patchClass(u, st, classSlot(st.candidates, ds), c) ? 1 : 0;
  }
  return replans;
}

bool ShardPlanner::patchClass(net::NodeId u, ClientState& st,
                              std::vector<Candidate>::iterator at,
                              const Candidate& c) {
  const bool has = at != st.candidates.end() && at->ds == c.ds;
  if (c.peer == net::kInvalidNode) {
    if (!has) return false;
    st.candidates.erase(at);
  } else if (has) {
    if (*at == c) return false;
    *at = c;
  } else {
    // rmrn-lint: allow(HOT-1) per-client list keeps its capacity across churn; ShardChurnAllocTest pins zero steady-state allocation
    st.candidates.insert(at, c);
  }
  replanStrategy(u, st, arena_.plan);
  return true;
}

void ShardPlanner::foldAnchorPath(net::NodeId anchor) {
  const net::MulticastTree& tree = topology_->tree;
  const net::HopCount depth = tree.depth(anchor);
  // rmrn-lint: allow(HOT-1) retained-capacity scratch of anchor depth; ShardChurnAllocTest pins zero steady-state allocation
  fold_.assign(static_cast<std::size_t>(depth) + 1, TopTwo{});
  path_children_.clear();
  path_children_start_.clear();
  for (const net::LcaIndex::Subtree& at : anchor_path_) {
    // rmrn-lint: allow(HOT-1) retained-capacity scratch of anchor depth; ShardChurnAllocTest pins zero steady-state allocation
    path_children_start_.push_back(
        static_cast<std::uint32_t>(path_children_.size()));
    const auto group = static_cast<std::ptrdiff_t>(path_children_.size());
    for (const net::NodeId c : tree.children(tree.members()[at.begin])) {
      // rmrn-lint: allow(HOT-1) retained-capacity scratch of the path's children; ShardChurnAllocTest pins zero steady-state allocation
      path_children_.push_back(
          PathChild{static_cast<std::uint32_t>(idx(c)), c});
    }
    std::sort(path_children_.begin() + group, path_children_.end(),
              [](const PathChild& a, const PathChild& b) {
                return a.pos < b.pos;
              });
  }
  // rmrn-lint: allow(HOT-1) retained-capacity scratch of anchor depth; ShardChurnAllocTest pins zero steady-state allocation
  path_children_start_.push_back(
      static_cast<std::uint32_t>(path_children_.size()));
  for (std::uint32_t b = 0; b < partition_.numSlots(); ++b) {
    if (!partition_.isLive(b)) continue;
    const ShardState& state = shard_states_[b];
    if (state.rep == net::kInvalidNode) continue;
    const net::HopCount m =
        net::LcaIndex::meetDepth(anchor_path_, state.root_pos);
    offer(fold_[m], branchOffPath(state, m), state.rep, state.rep_srtt);
  }
  // Everything meeting the path below depth d arrives at depth d through
  // the path's own branch, so fold deeper winners upward as bulkBuildExt
  // does over the whole tree.
  net::NodeId below = anchor;
  for (net::HopCount d = depth; d-- > 0;) {
    offer(fold_[d], below, fold_[d + 1].best);
    below = tree.parent(below);
  }
}

void ShardPlanner::applyChurn(const GroupPartition::Churn& churn,
                              net::NodeId v, bool joined) {
  last_replans_ = 0;
  last_shards_touched_ = 0;
  if (shard_states_.size() < partition_.numSlots()) {
    // rmrn-lint: allow(HOT-1) grows only when the partition adds shard slots — an amortized, rare event
    shard_states_.resize(partition_.numSlots());
    // rmrn-lint: allow(HOT-1) grows only when the partition adds shard slots — an amortized, rare event
    in_changed_.resize(partition_.numSlots(), 0);
  }

  // What the rebuilt region used to offer the outside world: the best of
  // the changed slots' previous representatives.
  net::NodeId old_best = net::kInvalidNode;
  for (const std::uint32_t id : churn.touched) {
    const net::NodeId rep = shard_states_[id].rep;
    if (rep != net::kInvalidNode &&
        (old_best == net::kInvalidNode || repLess(rep, old_best))) {
      old_best = rep;
    }
  }
  for (const std::uint32_t id : churn.removed) {
    const net::NodeId rep = shard_states_[id].rep;
    if (rep != net::kInvalidNode &&
        (old_best == net::kInvalidNode || repLess(rep, old_best))) {
      old_best = rep;
    }
  }
  // Any changed root gives the same lca — hence the same competitive depth
  // — as seen from every surviving shard, so one anchor node stands in for
  // the whole region.
  net::NodeId anchor = churn.removed.empty()
                           ? net::kInvalidNode
                           : shard_states_[churn.removed.front()].root;

  bool root_changed = false;
  for (const std::uint32_t id : churn.removed) {
    ShardState& dead = shard_states_[id];
    dead.root = net::kInvalidNode;
    dead.rep = net::kInvalidNode;
    dead.ext.clear();  // keep capacity for slot reuse
  }
  net::NodeId new_best = net::kInvalidNode;
  for (const std::uint32_t id : churn.touched) {
    ShardState& state = shard_states_[id];
    if (state.root != partition_.shard(id).root) root_changed = true;
    refreshShardState(id);
    if (state.rep != net::kInvalidNode &&
        (new_best == net::kInvalidNode || repLess(state.rep, new_best))) {
      new_best = state.rep;
    }
  }
  if (!churn.touched.empty()) {
    anchor = shard_states_[churn.touched.front()].root;
  }

  // Fast path: one shard changed in place and its representative kept the
  // same key, so no other shard can see a difference.  This is the
  // steady-state join/leave of a non-representative client — O(K) LCA
  // probes, Algorithm 1 only where v's class changed, and zero allocations
  // once warmed.
  if (churn.removed.empty() && churn.touched.size() == 1 && !root_changed &&
      old_best == new_best) {
    last_replans_ += patchChurnedShard(churn.touched.front(), v, joined);
    last_shards_touched_ = 1;
    return;
  }

  if (anchor == net::kInvalidNode) return;  // no shard changed

  // One pass over the surviving shards.  Each meets every changed root at
  // the depth where it meets the anchor: that depth ranks its
  // representative for the region's new ext tables and, when the region's
  // best representative moved, is the one ext slot it must patch.  The pass
  // reads only the shard states (cached root position and representative
  // source RTT), so it streams instead of missing cache per shard.
  for (const std::uint32_t id : churn.touched) in_changed_[id] = 1;
  for (const std::uint32_t id : churn.removed) in_changed_[id] = 1;
  // rmrn-lint: allow(HOT-1) retained-capacity scratch of anchor depth; ShardChurnAllocTest pins zero steady-state allocation
  outside_best_.assign(
      static_cast<std::size_t>(topology_->tree.depth(anchor)) + 1,
      net::kInvalidNode);
  // Where a shard root meets the anchor is the deepest subtree on the
  // anchor's root path holding it: a binary search per shard, no LCA.
  lca_->rootPathSubtrees(anchor, anchor_path_);
  bool folded = false;
  for (std::uint32_t x = 0; x < partition_.numSlots(); ++x) {
    if (in_changed_[x] || !partition_.isLive(x)) continue;
    const ShardState& state = shard_states_[x];
    const net::HopCount ds =
        net::LcaIndex::meetDepth(anchor_path_, state.root_pos);
    net::NodeId& outside = outside_best_[ds];
    if (state.rep != net::kInvalidNode &&
        (outside == net::kInvalidNode ||
         repLess(state.rep_srtt, state.rep, outside))) {
      outside = state.rep;
    }
    if (old_best == new_best) continue;
    net::NodeId& entry = shard_states_[x].ext[ds];
    net::NodeId winner;
    if (entry != net::kInvalidNode && entry == old_best) {
      // The region held this depth's crown.  A strictly better new
      // representative wins outright; otherwise the successor is the best
      // shard meeting x at ds, read off the anchor-path fold: everything
      // rooted under the anchor's depth-ds ancestor but outside x's own
      // branch.
      if (new_best != net::kInvalidNode && repLess(new_best, old_best)) {
        winner = new_best;
      } else {
        if (!folded) foldAnchorPath(anchor);
        folded = true;
        winner = fold_[ds].excluding(branchOffPath(state, ds));
      }
    } else if (entry != net::kInvalidNode) {
      winner = entry;
      if (new_best != net::kInvalidNode && repLess(new_best, winner)) {
        winner = new_best;
      }
    } else {
      // No entry means no shard met x at this depth before, so the new
      // representative (if any) competes against nothing.
      winner = new_best;
    }
    if (winner != entry) {
      entry = winner;
      last_replans_ += patchImporter(x, ds, winner);
      ++last_shards_touched_;
    }
  }
  for (const std::uint32_t id : churn.touched) in_changed_[id] = 0;
  for (const std::uint32_t id : churn.removed) in_changed_[id] = 0;

  for (const std::uint32_t id : churn.touched) {
    buildRegionExt(id, churn.touched);
    last_replans_ += planShard(id, arena_, false);
    ++last_shards_touched_;
  }
}

void ShardPlanner::addClient(net::NodeId v) {
  // Checked in every build: GroupPartition's own contract checks compile
  // out with RMRN_AUDIT=OFF, and a bad join would corrupt its counts.
  if (v == topology_->source) {
    throw std::invalid_argument("ShardPlanner: the source is no client");
  }
  if (!topology_->tree.contains(v)) {
    throw std::invalid_argument("ShardPlanner: node not in tree");
  }
  if (partition_.isClient(v)) {
    throw std::invalid_argument("ShardPlanner: already a client");
  }
  const GroupPartition::Churn& churn = partition_.addClient(v);
  const std::size_t i = idx(v);
  srtt_[i] = routing_->rtt(v, topology_->source);
  state_[i].active = true;
  state_[i].planned = false;
  applyChurn(churn, v, true);
}

void ShardPlanner::removeClient(net::NodeId v) {
  if (!partition_.isClient(v)) {
    throw std::invalid_argument("ShardPlanner: not a client");
  }
  const GroupPartition::Churn& churn = partition_.removeClient(v);
  const std::size_t i = idx(v);
  state_[i].active = false;
  state_[i].planned = false;
  applyChurn(churn, v, false);
}

const Strategy& ShardPlanner::strategyFor(net::NodeId client) const {
  if (!topology_->tree.contains(client) || !state_[idx(client)].active) {
    throw std::out_of_range("ShardPlanner: unknown client");
  }
  return state_[idx(client)].strategy;
}

const std::vector<Candidate>& ShardPlanner::candidatesFor(
    net::NodeId client) const {
  if (!topology_->tree.contains(client) || !state_[idx(client)].active) {
    throw std::out_of_range("ShardPlanner: unknown client");
  }
  return state_[idx(client)].candidates;
}

std::vector<net::NodeId> ShardPlanner::currentClients() const {
  std::vector<net::NodeId> result;
  // rmrn-lint: allow(HOT-1) diagnostic query API, not on the churn hot path
  result.reserve(partition_.numClients());
  for (std::uint32_t id = 0; id < partition_.numSlots(); ++id) {
    if (!partition_.isLive(id)) continue;
    const Shard& shard = partition_.shard(id);
    // rmrn-lint: allow(HOT-1) diagnostic query API, not on the churn hot path
    result.insert(result.end(), shard.clients.begin(), shard.clients.end());
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<net::NodeId> ShardPlanner::consideredPeersFor(
    net::NodeId client) const {
  if (!topology_->tree.contains(client) || !state_[idx(client)].active) {
    throw std::out_of_range("ShardPlanner: unknown client");
  }
  std::vector<net::NodeId> consider;
  buildConsider(partition_.shardOf(client), consider);
  return consider;
}

AuditReport ShardPlanner::auditAll() const {
  const PlanAuditor auditor(*topology_, *routing_);
  AuditOptions audit_options;
  audit_options.timeout_ms = options_.planner.timeout_ms;
  audit_options.per_peer_timeout_factor =
      options_.planner.per_peer_timeout_factor;
  audit_options.min_timeout_ms = options_.planner.min_timeout_ms;
  audit_options.cost_model = options_.planner.cost_model;
  audit_options.allow_direct_source = options_.planner.allow_direct_source;
  audit_options.max_list_length = options_.planner.max_list_length;
  audit_options.excluded_peers = options_.planner.excluded_peers;

  AuditReport report;
  std::vector<char> considered(topology_->tree.numMembers(), 0);
  std::vector<net::NodeId> consider;
  std::vector<net::NodeId> banned;
  for (std::uint32_t id = 0; id < partition_.numSlots(); ++id) {
    if (!partition_.isLive(id)) continue;
    buildConsider(id, consider);
    for (const net::NodeId w : consider) considered[idx(w)] = 1;
    // Everything outside the consideration set counts as excluded: the
    // audit then proves each plan optimal for its restricted peer set.
    banned.clear();
    for (const net::NodeId c : topology_->clients) {
      // rmrn-lint: allow(HOT-1) audit path, invoked offline, not steady-state
      if (!considered[idx(c)]) banned.push_back(c);
    }
    for (const net::NodeId u : partition_.shard(id).clients) {
      const AuditReport one = auditor.auditStrategyExcluding(
          u, state_[idx(u)].strategy, audit_options, banned);
      report.clients_checked += one.clients_checked;
      // rmrn-lint: allow(HOT-1) audit path, invoked offline, not steady-state
      report.violations.insert(report.violations.end(),
                               one.violations.begin(), one.violations.end());
    }
    for (const net::NodeId w : consider) considered[idx(w)] = 0;
  }
  return report;
}

}  // namespace rmrn::core
