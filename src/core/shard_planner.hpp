// Hierarchical sharded planner (DESIGN.md §11): planning at 100k-1M clients.
//
// The flat RpPlanner evaluates every client against every other client —
// O(k^2) LCA/RTT probes — which stops scaling long before the group sizes
// the paper's recovery scheme targets.  ShardPlanner cuts the pairing down
// with the multicast tree itself:
//
//   1. GroupPartition splits the client set by subtree (shallowest nodes
//      whose subtrees hold at most K clients, canonical in the membership).
//   2. Within a shard, Lemma 4/5 candidate selection and Algorithm 1 run
//      against the shard's own clients plus one *representative* per
//      external competitive depth.  For any two distinct shards A and B,
//      lca(u, w) = lca(root_A, root_B) for every u in A, w in B (their root
//      subtrees are disjoint, or one root is an ancestor shard's residual
//      client), so all of B competes at one u-independent router on A's
//      root path.  Per router depth only the best external representative
//      (minimum source RTT, ties toward the lowest id) can ever win a slot,
//      so each shard keeps a per-depth external table of size O(depth)
//      instead of scanning all k clients.
//
//   3. Every selection path ranks a class by one order, classBefore: RTT,
//      then source RTT, then id.  Under Routing's tree metric over this
//      tree both RTTs grow with a peer's weighted depth, so a class's
//      (source RTT, id) minimum is its winner.  The representatives are
//      then exact, and a shard's own classes come from one bottom-up fold
//      of its eligible members over the root's subtree, keeping the top two
//      per node by arrival branch (TopTwo).  Member u's class at an
//      ancestor inside the shard is that ancestor's fold minus u's own
//      branch; above the root it is the ext entry.  Only the chosen
//      candidates need an RTT probe (Eq. 1's d_j), and the plans equal
//      RpPlanner's bit for bit at every K.  Any other routing probes every
//      considered peer per member (selectCandidatesInto); audit builds
//      rerun that path as the reference for every folded list.
//
// On general graphs the representative choice is a documented
// approximation; plans remain optimal with respect to the considered peer
// set (auditAll() proves it via PlanAuditor's exclusion-aware checks).
//
// Churn (addClient/removeClient) reuses GroupPartition's locality and
// Lemma 4: a join or leave of v can change a client's candidate list only in
// the one competitive class v falls into.  When v's shard changes in place
// and keeps its representative, no other shard can tell, and each member
// patches the class at lca(u, v) (one LCA and one RTT probe; a leave
// reselects only the members whose class winner was v).  Otherwise the
// region is rebuilt, and one pass over the surviving shards (one LCA probe
// each) ranks them for the region's new ext tables and, if the region's
// best representative moved, patches each survivor's single affected
// depth: the ext entry and the matching candidate of each member.  When
// the region held the crown of that depth, the successor comes from one
// fold of all representatives onto the region anchor's root path, shared by
// every importer.  All scratch is arena-reused, so steady-state churn,
// crown cycles included, performs zero heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/auditor.hpp"
#include "core/candidates.hpp"
#include "core/group_partition.hpp"
#include "core/planner.hpp"
#include "core/strategy_graph.hpp"
#include "net/lca.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace rmrn::core {

struct ShardPlannerOptions {
  /// Timeout, cost model, restrictions, excluded peers, audit and thread
  /// count, with RpPlanner semantics (zero timeout derives 2x the largest
  /// client-source RTT from the initial membership, fixed across churn;
  /// num_threads parallelizes the initial whole-group build over shards).
  PlannerOptions planner;
  /// The partition budget K >= 1: shards split at the shallowest subtrees
  /// holding at most this many clients.  UINT32_MAX keeps the whole group in
  /// one shard, where every plan equals RpPlanner's on any routing.
  std::uint32_t max_shard_clients = 64;
};

// Thread-safety (DESIGN.md §12): immutable-after-build for queries, but
// externally synchronized for mutation.  The constructor may plan shards in
// parallel (each worker owns a private Arena and writes disjoint per-member
// plan slots; the one shared write, shard_states_[id], is its own slot per
// worker).  join()/leave() churn is single-threaded by contract — it mutates
// the partition, the external tables and the shared arena_ — so a caller
// interleaving churn with concurrent queries must serialize them.  No
// lock-protected members — nothing to RMRN_GUARDED_BY.
class ShardPlanner {
 public:
  /// Plans for `topology.clients`.  The topology and routing must outlive
  /// the planner.  `routing` needs rows for clients only (sparse and
  /// tree-metric modes both qualify).  Throws std::invalid_argument on a
  /// negative timeout or a zero shard budget.
  ShardPlanner(const net::Topology& topology, const net::Routing& routing,
               ShardPlannerOptions options);

  /// Adds a receiver at tree member `v` / removes receiver `v`, updating
  /// only the affected shard region plus any shards whose external
  /// representative table changed.  Throws std::invalid_argument, leaving
  /// the planner untouched, when `v` is the source, not a tree member or
  /// already a client (add), or not a client (remove).
  void addClient(net::NodeId v);
  void removeClient(net::NodeId v);

  [[nodiscard]] const Strategy& strategyFor(net::NodeId client) const;
  [[nodiscard]] const std::vector<Candidate>& candidatesFor(
      net::NodeId client) const;

  [[nodiscard]] std::size_t numClients() const {
    return partition_.numClients();
  }
  /// Current membership, sorted ascending (rebuilt on each call).
  [[nodiscard]] std::vector<net::NodeId> currentClients() const;

  [[nodiscard]] const GroupPartition& partition() const { return partition_; }

  /// Options after timeout resolution.
  [[nodiscard]] const ShardPlannerOptions& resolvedOptions() const {
    return options_;
  }
  [[nodiscard]] double timeoutMs() const { return options_.planner.timeout_ms; }

  /// Strategies recomputed by the most recent addClient/removeClient.
  [[nodiscard]] std::size_t lastReplans() const { return last_replans_; }
  /// Shards whose members were re-examined by the most recent churn call:
  /// the rebuilt region plus representative-importing shards.
  [[nodiscard]] std::size_t lastShardsTouched() const {
    return last_shards_touched_;
  }

  /// The peers `client`'s plan was allowed to consider: its shard's
  /// non-excluded members plus the shard's external representatives.
  [[nodiscard]] std::vector<net::NodeId> consideredPeersFor(
      net::NodeId client) const;

  /// Referees every emitted strategy with PlanAuditor, treating all peers
  /// outside the client's consideration set as excluded — proves each plan
  /// optimal for its restricted peer set.  Meaningful while the current
  /// membership is a subset of topology.clients (the auditor checks listed
  /// peers against the static client list).
  [[nodiscard]] AuditReport auditAll() const;

 private:
  struct ClientState {
    bool active = false;   // currently a receiver
    bool planned = false;  // strategy/candidates hold a real plan
    std::vector<Candidate> candidates;  // descending DS
    Strategy strategy;
  };

  /// One external competitive depth: the router is the ancestor of the
  /// shard root at depth `ds`; `rep` is the best representative among all
  /// shards meeting this shard there.
  struct ExtEntry {
    net::HopCount ds = 0;
    net::NodeId rep = net::kInvalidNode;
  };

  struct ShardState {
    net::NodeId root = net::kInvalidNode;
    net::NodeId rep = net::kInvalidNode;  // min (source RTT, id) eligible
    std::vector<ExtEntry> ext;            // ascending ds, winners only
  };

  /// The best and runner-up client in repLess order offered at one tree
  /// node (shard representatives, or a shard's members in its fold), each
  /// tagged with the branch it arrived through; the runner-up is the best
  /// arriving through a branch other than the winner's.
  struct TopTwo {
    net::NodeId best = net::kInvalidNode;
    net::NodeId via = net::kInvalidNode;
    net::NodeId second = net::kInvalidNode;
    /// The best client not arriving through `branch`.
    [[nodiscard]] net::NodeId excluding(net::NodeId branch) const {
      return via != branch ? best : second;
    }
  };

  /// Per-worker planning scratch; the churn path owns one (arena_) so
  /// steady-state replanning allocates nothing.
  struct Arena {
    CandidateScratch cand;
    PlanScratch plan;
    std::vector<Candidate> tmp;
    std::vector<net::NodeId> consider;
    std::vector<TopTwo> fold;      // foldShard, per shard-subtree node
    std::vector<Candidate> probe;  // audit builds: the probe-path list
  };

  [[nodiscard]] std::size_t idx(net::NodeId v) const;
  [[nodiscard]] bool eligible(net::NodeId v) const;
  /// Representative ordering: source RTT, ties toward the lowest id.
  [[nodiscard]] bool repLess(net::NodeId a, net::NodeId b) const;
  [[nodiscard]] net::NodeId computeRep(const Shard& shard) const;

  /// Offers `rep` (ignored when invalid) to `top` through branch `via`.
  void offer(TopTwo& top, net::NodeId via, net::NodeId rep) const;
  /// The branch through which `root` reaches its ancestor at depth `d`: the
  /// ancestor at depth d + 1, or `root` itself when it sits at depth d.
  [[nodiscard]] net::NodeId branchAt(net::NodeId root, net::HopCount d) const;

  /// Rebuilds the ext table of changed shard `id` from outside_best_ (the
  /// surviving shards, ranked per depth by the churn pass) and pairwise
  /// probes against the other shards of `region`.
  void buildRegionExt(std::uint32_t id, std::span<const std::uint32_t> region);
  /// Builds every live shard's external table in one bottom-up pass over
  /// the tree (O(n + sum of root depths)) instead of a pairwise scan per
  /// shard (O(numShards^2) LCA probes).  Constructor-only; the churn path
  /// patches tables incrementally.
  void bulkBuildExt(const std::vector<std::uint32_t>& live);
  void buildConsider(std::uint32_t id, std::vector<net::NodeId>& out) const;
  /// Recomputes `u`'s candidates against `consider`; reruns Algorithm 1
  /// only when they changed (or `force`).  Returns whether it replanned.
  bool planClient(net::NodeId u, std::span<const net::NodeId> consider,
                  Arena& arena, bool force);
  /// Makes `arena.tmp` u's candidate list, rerunning Algorithm 1 only when
  /// it changed (or `force`).  Returns whether it replanned.
  bool adoptCandidates(net::NodeId u, Arena& arena, bool force);
  /// Plans every member of shard `id`: by the subtree fold under the tree
  /// metric, by per-member probes of the consideration set otherwise.
  std::size_t planShard(std::uint32_t id, Arena& arena, bool force);
  /// Folds shard `id`'s eligible members up its root's subtree:
  /// arena.fold[i] ranks the members under the node at preorder offset i
  /// from the root by the branch they arrive through.
  void foldShard(std::uint32_t id, Arena& arena) const;
  /// Member `u`'s Lemma 4 list into arena.tmp, read off the fold (classes
  /// inside the shard) and the ext table (classes above its root).
  void foldCandidates(std::uint32_t id, net::NodeId u, Arena& arena) const;
  /// Audit builds: whether arena.tmp equals the probe path's list for `u`.
  bool probeAgrees(std::uint32_t id, net::NodeId u, Arena& arena) const;
  /// Reruns Algorithm 1 on `u`'s current candidate list.
  void replanStrategy(net::NodeId u, ClientState& st, PlanScratch& plan);
  /// Single-shard churn: `v` joined or left shard `id`, whose root and
  /// external table stayed put.  Patches each member's class at lca(u, v).
  std::size_t patchChurnedShard(std::uint32_t id, net::NodeId v, bool joined);
  /// Shard `x`'s ext entry at depth `ds` became `winner` (kInvalidNode:
  /// erased).  Sets that one class in every member's list.
  std::size_t patchImporter(std::uint32_t x, net::HopCount ds,
                            net::NodeId winner);
  /// Puts `c` into `u`'s class slot `at` (erases the class when `c.peer` is
  /// invalid) and reruns Algorithm 1 if the list changed.  Returns whether
  /// it replanned.
  bool patchClass(net::NodeId u, ClientState& st,
                  std::vector<Candidate>::iterator at, const Candidate& c);
  /// Folds every live shard's representative onto `anchor`'s root path:
  /// fold_[d] ranks the shards rooted under the depth-d ancestor by the
  /// branch they arrive through.  O(shards) LCA probes.
  void foldAnchorPath(net::NodeId anchor);
  /// Shared add/remove tail: given the partition churn report for client
  /// `v`, refreshes shard states, patches importer tables and replans what
  /// changed.
  void applyChurn(const GroupPartition::Churn& churn, net::NodeId v,
                  bool joined);

  const net::Topology* topology_;
  const net::Routing* routing_;
  ShardPlannerOptions options_;
  net::LcaIndex lca_;
  StrategyGraphOptions graph_options_;
  GroupPartition partition_;

  // Per-memberIndex state.
  std::vector<double> srtt_;     // client <-> source round trip
  std::vector<char> excluded_;   // PlannerOptions::excluded_peers flags
  std::vector<ClientState> state_;

  std::vector<ShardState> shard_states_;  // per partition slot id
  bool tree_fold_ = false;  // routing is the tree metric over the tree

  Arena arena_;  // churn-path scratch
  std::vector<net::NodeId> ext_depth_best_;  // buildRegionExt scratch
  std::vector<net::NodeId> outside_best_;    // churn: best survivor by depth
  std::vector<TopTwo> fold_;                 // foldAnchorPath, per depth
  std::vector<char> in_changed_;             // churn: slot id -> changed?
  std::size_t last_replans_ = 0;
  std::size_t last_shards_touched_ = 0;
};

}  // namespace rmrn::core
