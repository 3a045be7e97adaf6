// Competitive clients and candidate selection — paper §4, Lemmas 4-5.
//
// Two peers are *competitive with respect to u* when their first common
// router with u (on the multicast tree) is the same node.  Competitiveness
// is an equivalence relation; Lemma 4 shows an optimal recovery strategy
// contains at most one member per class, namely the one with the smallest
// round-trip time.  Because every first common router with u lies on u's
// root path, distinct classes have distinct DS depths, and Lemma 5 shows an
// optimal strategy lists candidates in strictly descending DS order.
#pragma once

#include <span>
#include <vector>

#include "net/lca.hpp"
#include "net/multicast_tree.hpp"
#include "net/routing.hpp"
#include "net/types.hpp"

namespace rmrn::core {

/// A peer considered for u's prioritized list.
struct Candidate {
  net::NodeId peer = net::kInvalidNode;
  net::HopCount ds = 0;  // depth of the first common router with u (DS_j)
  double rtt_ms = 0.0;   // round-trip time u <-> peer (d_j)

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// One competitive equivalence class: all peers sharing a first common
/// router with u.
struct CompetitiveClass {
  net::NodeId common_router = net::kInvalidNode;
  net::HopCount ds = 0;
  std::vector<net::NodeId> peers;  // sorted by id
};

/// Partitions `clients` (excluding u and the source) into competitive
/// classes w.r.t. u, ordered by descending DS.  Throws if u is not a tree
/// member.
[[nodiscard]] std::vector<CompetitiveClass> competitiveClasses(
    net::NodeId u, const net::MulticastTree& tree,
    const std::vector<net::NodeId>& clients);

/// Same, with O(1) LCA queries via a prebuilt index — the planner's
/// whole-group pass issues O(k^2) queries, so it builds one index and
/// reuses it.  `index` must be built over `tree`.
[[nodiscard]] std::vector<CompetitiveClass> competitiveClasses(
    net::NodeId u, const net::MulticastTree& tree, const net::LcaIndex& index,
    const std::vector<net::NodeId>& clients);

/// Lemma 4's class order, the one rule every selection path uses: the
/// smaller RTT wins; an exact RTT tie goes to the smaller source RTT, then
/// to the lower id (the paper breaks ties at random; a deterministic rule
/// keeps runs reproducible).  `source_rtt(peer)` is read only on an exact
/// RTT tie.  Under the tree metric both RTTs grow with the peer's weighted
/// depth, so a class's (source RTT, id) minimum is its winner — what
/// ShardPlanner's representatives and subtree fold rely on (DESIGN.md
/// §11.2).
template <typename SourceRtt>
[[nodiscard]] bool classBefore(const Candidate& a, const Candidate& b,
                               const SourceRtt& source_rtt) {
  if (a.rtt_ms != b.rtt_ms) return a.rtt_ms < b.rtt_ms;
  const double sa = source_rtt(a.peer);
  const double sb = source_rtt(b.peer);
  return sa < sb || (sa == sb && a.peer < b.peer);
}

/// Selects the candidate (first in classBefore order, source RTTs read as
/// rtt(peer, tree root)) from each competitive class.  Result is sorted by
/// strictly descending DS, as required for meaningful strategies
/// (Lemma 5).  Implemented as a single
/// flat min-reduction over a DS-indexed array (no per-class peer lists, no
/// ordered-map nodes) so the planner's per-client hot path stays allocation
/// light.
[[nodiscard]] std::vector<Candidate> selectCandidates(
    net::NodeId u, const net::MulticastTree& tree, const net::Routing& routing,
    const std::vector<net::NodeId>& clients);

/// LCA-index-accelerated variant; identical output.
[[nodiscard]] std::vector<Candidate> selectCandidates(
    net::NodeId u, const net::MulticastTree& tree, const net::LcaIndex& index,
    const net::Routing& routing, const std::vector<net::NodeId>& clients);

/// Reusable buffer for selectCandidatesInto.  One per planning thread (or
/// per shard): after warm-up, repeated selections allocate nothing.
struct CandidateScratch {
  std::vector<Candidate> best_by_ds;  // indexed by DS depth
};

/// selectCandidates into a caller-owned vector (cleared first), with the
/// DS-indexed working array taken from `scratch`.  Identical output to
/// selectCandidates; reusing `scratch` and `out` capacity keeps steady-state
/// replanning allocation-free.
void selectCandidatesInto(net::NodeId u, const net::MulticastTree& tree,
                          const net::LcaIndex& index,
                          const net::Routing& routing,
                          std::span<const net::NodeId> clients,
                          CandidateScratch& scratch,
                          std::vector<Candidate>& out);

}  // namespace rmrn::core
