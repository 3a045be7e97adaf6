#include "core/candidates.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rmrn::core {

namespace {

// Every first common router with u lies on u's root path and is a proper
// ancestor of u (v's in u's own subtree are skipped), so class keys are DS
// depths in [0, depth(u)): both helpers below index a flat vector by DS
// instead of a node-allocating ordered map.  The LCA callable is a template
// parameter so the per-pair query inlines (no std::function indirection on
// the planner's O(k^2) hot path).

template <typename LcaFn>
std::vector<CompetitiveClass> classesImpl(
    net::NodeId u, const net::MulticastTree& tree, const LcaFn& lca,
    const std::vector<net::NodeId>& clients) {
  RMRN_REQUIRE(tree.contains(u), "competitiveClasses: u not in tree");
  const net::HopCount depth_u = tree.depth(u);
  std::vector<CompetitiveClass> by_depth(depth_u);
  for (const net::NodeId v : clients) {
    if (v == u || v == tree.root()) continue;
    RMRN_REQUIRE(tree.contains(v), "competitiveClasses: client not in tree");
    const net::NodeId router = lca(u, v);
    if (router == u) continue;  // v sits in u's own subtree (possible when
                                // clients are internal nodes): if u lost the
                                // packet, v surely lost it too — useless.
    const net::HopCount ds = tree.depth(router);
    CompetitiveClass& cls = by_depth[ds];
    cls.common_router = router;
    cls.ds = ds;
    cls.peers.push_back(v);
  }
  std::vector<CompetitiveClass> result;
  for (net::HopCount ds = depth_u; ds-- > 0;) {  // descending DS
    CompetitiveClass& cls = by_depth[ds];
    if (cls.peers.empty()) continue;
    std::sort(cls.peers.begin(), cls.peers.end());
    result.push_back(std::move(cls));
  }
  return result;
}

// Candidate selection without materializing the classes: per DS depth only
// the running minimum-RTT peer is kept.  The DS-indexed array and the output
// both come from the caller, so a warmed caller performs zero allocations.
template <typename LcaFn>
void selectIntoImpl(net::NodeId u, const net::MulticastTree& tree,
                    const LcaFn& lca, const net::Routing& routing,
                    std::span<const net::NodeId> clients,
                    std::vector<Candidate>& best, std::vector<Candidate>& out) {
  RMRN_REQUIRE(tree.contains(u), "selectCandidates: u not in tree");
  const net::HopCount depth_u = tree.depth(u);
  const auto source_rtt = [&](net::NodeId w) {
    return routing.rtt(w, tree.root(), tree.root());
  };
  best.assign(depth_u, Candidate{});  // indexed by DS; kInvalidNode = empty
  for (const net::NodeId v : clients) {
    if (v == u || v == tree.root()) continue;
    RMRN_REQUIRE(tree.contains(v), "selectCandidates: client not in tree");
    const net::NodeId router = lca(u, v);
    if (router == u) continue;  // see classesImpl
    const Candidate c{v, tree.depth(router), routing.rtt(u, v, router)};
    Candidate& slot = best[c.ds];
    if (slot.peer == net::kInvalidNode || classBefore(c, slot, source_rtt)) {
      slot = c;
    }
  }
  out.clear();
  for (net::HopCount ds = depth_u; ds-- > 0;) {  // strictly descending DS
    if (best[ds].peer != net::kInvalidNode) out.push_back(best[ds]);
  }
  // Lemma 5 postcondition: one candidate per competitive class, strictly
  // descending DS, all below DS_u.
  for (std::size_t i = 0; i < out.size(); ++i) {
    RMRN_ENSURE(out[i].ds < (i == 0 ? depth_u : out[i - 1].ds),
                "candidate list must be strictly descending in DS below DS_u");
  }
}

template <typename LcaFn>
std::vector<Candidate> selectImpl(net::NodeId u, const net::MulticastTree& tree,
                                  const LcaFn& lca,
                                  const net::Routing& routing,
                                  const std::vector<net::NodeId>& clients) {
  std::vector<Candidate> best;
  std::vector<Candidate> result;
  selectIntoImpl(u, tree, lca, routing, clients, best, result);
  return result;
}

}  // namespace

std::vector<CompetitiveClass> competitiveClasses(
    net::NodeId u, const net::MulticastTree& tree,
    const std::vector<net::NodeId>& clients) {
  return classesImpl(
      u, tree,
      [&tree](net::NodeId a, net::NodeId b) {
        return tree.firstCommonRouter(a, b);
      },
      clients);
}

std::vector<CompetitiveClass> competitiveClasses(
    net::NodeId u, const net::MulticastTree& tree, const net::LcaIndex& index,
    const std::vector<net::NodeId>& clients) {
  return classesImpl(
      u, tree,
      [&index](net::NodeId a, net::NodeId b) { return index.lca(a, b); },
      clients);
}

std::vector<Candidate> selectCandidates(
    net::NodeId u, const net::MulticastTree& tree, const net::Routing& routing,
    const std::vector<net::NodeId>& clients) {
  return selectImpl(
      u, tree,
      [&tree](net::NodeId a, net::NodeId b) {
        return tree.firstCommonRouter(a, b);
      },
      routing, clients);
}

std::vector<Candidate> selectCandidates(
    net::NodeId u, const net::MulticastTree& tree, const net::LcaIndex& index,
    const net::Routing& routing, const std::vector<net::NodeId>& clients) {
  return selectImpl(
      u, tree,
      [&index](net::NodeId a, net::NodeId b) { return index.lca(a, b); },
      routing, clients);
}

void selectCandidatesInto(net::NodeId u, const net::MulticastTree& tree,
                          const net::LcaIndex& index,
                          const net::Routing& routing,
                          std::span<const net::NodeId> clients,
                          CandidateScratch& scratch,
                          std::vector<Candidate>& out) {
  selectIntoImpl(
      u, tree,
      [&index](net::NodeId a, net::NodeId b) { return index.lca(a, b); },
      routing, clients, scratch.best_by_ds, out);
}

}  // namespace rmrn::core
