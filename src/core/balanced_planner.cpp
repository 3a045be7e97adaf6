#include "core/balanced_planner.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "core/loss_model.hpp"
#include "core/objective.hpp"
#include "net/lca.hpp"

namespace rmrn::core {

namespace {

// P(the request to strategy[j] is issued | the owner lost the packet), for
// every list position — the per-peer load contribution.
std::vector<double> requestProbabilities(const std::vector<Candidate>& peers,
                                         net::HopCount ds_u) {
  std::vector<double> reach;
  reach.reserve(peers.size());
  net::HopCount window = ds_u;
  double prob = 1.0;
  for (const Candidate& c : peers) {
    reach.push_back(prob);
    prob *= 1.0 - probPeerHasPacket(c.ds, window);
    window = shrinkLossWindow(window, c.ds);
  }
  return reach;
}

void accumulateLoads(const net::Topology& topology, net::NodeId u,
                     const std::vector<Candidate>& peers,
                     std::unordered_map<net::NodeId, double>& load) {
  const auto reach = requestProbabilities(peers, topology.tree.depth(u));
  for (std::size_t j = 0; j < peers.size(); ++j) {
    load[peers[j].peer] += reach[j];
  }
}

std::vector<PeerLoad> sortedLoads(
    const std::unordered_map<net::NodeId, double>& load) {
  std::vector<PeerLoad> result;
  result.reserve(load.size());
  // rmrn-lint: allow(DET-2) collected into a vector and fully sorted below (total order with peer tiebreak)
  for (const auto& [peer, requests] : load) {
    result.push_back({peer, requests});
  }
  std::sort(result.begin(), result.end(),
            [](const PeerLoad& a, const PeerLoad& b) {
              if (a.expected_requests != b.expected_requests) {
                return a.expected_requests > b.expected_requests;
              }
              return a.peer < b.peer;
            });
  return result;
}

}  // namespace

std::vector<PeerLoad> expectedPeerLoads(const net::Topology& topology,
                                        const RpPlanner& planner) {
  std::unordered_map<net::NodeId, double> load;
  for (const net::NodeId u : topology.clients) {
    accumulateLoads(topology, u, planner.strategyFor(u).peers, load);
  }
  return sortedLoads(load);
}

BalancedPlanner::BalancedPlanner(const net::Topology& topology,
                                 const net::Routing& routing,
                                 BalanceOptions options) {
  if (options.load_penalty_ms < 0.0 || options.max_rounds == 0) {
    throw std::invalid_argument("BalancedPlanner: bad options");
  }
  PlannerOptions planner_options = options.planner;
  if (planner_options.timeout_ms == 0.0 &&
      planner_options.per_peer_timeout_factor == 0.0) {
    double max_rtt = 0.0;
    for (const net::NodeId c : topology.clients) {
      max_rtt = std::max(max_rtt, routing.rtt(c, topology.source));
    }
    planner_options.timeout_ms = 2.0 * max_rtt;
  }
  StrategyGraphOptions graph_options;
  graph_options.timeout_ms = planner_options.timeout_ms;
  graph_options.per_peer_timeout_factor =
      planner_options.per_peer_timeout_factor;
  graph_options.min_timeout_ms = planner_options.min_timeout_ms;
  graph_options.cost_model = planner_options.cost_model;
  graph_options.allow_direct_source = planner_options.allow_direct_source;
  graph_options.max_list_length = planner_options.max_list_length;

  // Per-client class structure (peer, ds, true rtt) computed once.
  struct PeerEntry {
    net::NodeId peer;
    net::HopCount ds;
    double rtt;
  };
  const net::LcaIndex lca(topology.tree);
  std::unordered_map<net::NodeId, std::vector<PeerEntry>> peers_of;
  for (const net::NodeId u : topology.clients) {
    auto& entries = peers_of[u];
    for (const net::NodeId v : topology.clients) {
      if (v == u) continue;
      if (std::find(planner_options.excluded_peers.begin(),
                    planner_options.excluded_peers.end(),
                    v) != planner_options.excluded_peers.end()) {
        continue;
      }
      const net::NodeId router = lca.lca(u, v);
      if (router == u) continue;  // v inside u's subtree: useless
      entries.push_back(
          {v, topology.tree.depth(router), routing.rtt(u, v, router)});
    }
  }

  std::unordered_map<net::NodeId, double> penalty;  // per peer, ms
  std::unordered_map<net::NodeId, Strategy> previous;
  // Best-response iteration can oscillate, so keep the best round seen
  // (primary: max peer load; secondary: mean true delay).
  std::unordered_map<net::NodeId, Strategy> best_strategies;
  std::vector<PeerLoad> best_loads;
  double best_max_load = std::numeric_limits<double>::infinity();
  double best_mean_delay = std::numeric_limits<double>::infinity();
  for (rounds_ = 1; rounds_ <= options.max_rounds; ++rounds_) {
    strategies_.clear();
    std::unordered_map<net::NodeId, double> load;
    for (const net::NodeId u : topology.clients) {
      // Candidate per class under EFFECTIVE rtts (true rtt + penalty).
      std::map<net::HopCount, Candidate, std::greater<>> best;
      for (const PeerEntry& e : peers_of[u]) {
        const double effective = e.rtt + [&] {
          const auto it = penalty.find(e.peer);
          return it == penalty.end() ? 0.0 : it->second;
        }();
        const auto it = best.find(e.ds);
        if (it == best.end() || effective < it->second.rtt_ms ||
            (effective == it->second.rtt_ms && e.peer < it->second.peer)) {
          best[e.ds] = Candidate{e.peer, e.ds, effective};
        }
      }
      std::vector<Candidate> candidates;
      candidates.reserve(best.size());
      for (const auto& [ds, c] : best) candidates.push_back(c);

      const StrategyGraph graph(topology.tree.depth(u), candidates,
                                routing.rtt(u, topology.source),
                                graph_options);
      Strategy strategy = searchMinimalDelay(graph);
      // Report honest numbers: restore TRUE rtts and re-evaluate.
      for (Candidate& c : strategy.peers) c.rtt_ms = routing.rtt(u, c.peer);
      DelayParams params;
      params.ds_u = topology.tree.depth(u);
      params.rtt_source_ms = routing.rtt(u, topology.source);
      params.timeout_ms = planner_options.timeout_ms;
      params.cost_model = planner_options.cost_model;
      params.per_peer_timeout_factor =
          planner_options.per_peer_timeout_factor;
      params.min_timeout_ms = planner_options.min_timeout_ms;
      strategy.expected_delay_ms = expectedDelay(strategy.peers, params);
      accumulateLoads(topology, u, strategy.peers, load);
      strategies_.emplace(u, std::move(strategy));
    }

    loads_ = sortedLoads(load);
    const double round_max =
        loads_.empty() ? 0.0 : loads_.front().expected_requests;
    // Client order, not hash-walk order (DET-2): the FP summation order
    // feeds the best-round comparison, so it must be stable across standard
    // libraries, not just across runs.
    double delay_sum = 0.0;
    for (const net::NodeId u : topology.clients) {
      delay_sum += strategies_.at(u).expected_delay_ms;
    }
    const double round_mean_delay =
        strategies_.empty()
            ? 0.0
            : delay_sum / static_cast<double>(strategies_.size());
    if (round_max < best_max_load ||
        (round_max == best_max_load && round_mean_delay < best_mean_delay)) {
      best_max_load = round_max;
      best_mean_delay = round_mean_delay;
      best_strategies = strategies_;
      best_loads = loads_;
    }

    // Converged when the plan repeats.
    bool same = !previous.empty();
    for (const net::NodeId u : topology.clients) {
      const auto it = previous.find(u);
      same = same && it != previous.end() &&
             it->second.peers == strategies_.at(u).peers;
    }
    if (same) break;
    previous = strategies_;

    // Damped penalty update from this round's loads (full recomputation
    // oscillates: the load just migrates to the next-best peer and back).
    // Sum over loads_ (the sorted mirror of `load`) so the FP accumulation
    // order is canonical (DET-2), and apply the penalty bumps in the same
    // sorted order.
    double total = 0.0;
    for (const PeerLoad& entry : loads_) total += entry.expected_requests;
    const double mean =
        load.empty() ? 0.0 : total / static_cast<double>(load.size());
    // rmrn-lint: allow(DET-2) independent per-entry decay, no cross-entry accumulation
    for (auto& [peer, value] : penalty) value *= 0.5;  // decay
    for (const PeerLoad& entry : loads_) {
      if (entry.expected_requests > mean) {
        penalty[entry.peer] +=
            0.5 * options.load_penalty_ms * (entry.expected_requests - mean);
      }
    }
  }
  rounds_ = std::min(rounds_, options.max_rounds);

  strategies_ = std::move(best_strategies);
  loads_ = std::move(best_loads);
  mean_delay_ = best_mean_delay;
}

const Strategy& BalancedPlanner::strategyFor(net::NodeId client) const {
  const auto it = strategies_.find(client);
  if (it == strategies_.end()) {
    throw std::out_of_range("BalancedPlanner: unknown client");
  }
  return it->second;
}

double BalancedPlanner::maxPeerLoad() const {
  return loads_.empty() ? 0.0 : loads_.front().expected_requests;
}

}  // namespace rmrn::core
