#include "core/planner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/auditor.hpp"
#include "net/lca.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace rmrn::core {

RpPlanner::RpPlanner(const net::Topology& topology,
                     const net::Routing& routing, PlannerOptions options)
    : options_(options),
      topology_(&topology),
      routing_(&routing),
      lca_index_(topology.tree) {
  if (options_.timeout_ms < 0.0) {
    throw std::invalid_argument("RpPlanner: negative timeout");
  }
  const std::vector<net::NodeId>& clients = topology.clients;
  const std::size_t k = clients.size();

  // Prefetch every client's source RTT once: it feeds both the default
  // timeout below and the per-client strategy graphs, and it keeps the
  // parallel workers reading Routing through one tight array.
  std::vector<double> source_rtt(k);
  for (std::size_t i = 0; i < k; ++i) {
    source_rtt[i] = routing.rtt(clients[i], topology.source);
  }
  if (options_.timeout_ms == 0.0) {
    double max_rtt = 0.0;
    for (const double rtt : source_rtt) max_rtt = std::max(max_rtt, rtt);
    options_.timeout_ms = 2.0 * max_rtt;
  }

  graph_options_.timeout_ms = options_.timeout_ms;
  graph_options_.per_peer_timeout_factor = options_.per_peer_timeout_factor;
  graph_options_.min_timeout_ms = options_.min_timeout_ms;
  graph_options_.cost_model = options_.cost_model;
  graph_options_.allow_direct_source = options_.allow_direct_source;
  graph_options_.max_list_length = options_.max_list_length;
  const StrategyGraphOptions& graph_options = graph_options_;

  // Excluded peers never serve, but still get their own strategies.  The
  // set is kept for replanExcluding()'s further pruning.
  servers_ = topology.clients;
  for (const net::NodeId banned : options_.excluded_peers) {
    std::erase(servers_, banned);
  }
  const std::vector<net::NodeId>& servers = servers_;

  const net::LcaIndex& lca_index = lca_index_;

  // Each client's plan is independent (candidate selection + Algorithm 1
  // over read-only shared state), so workers fill disjoint pre-sized slots
  // and the maps are built after the join — output is bit-identical to the
  // sequential path for any thread count.
  struct Slot {
    std::vector<Candidate> candidates;
    Strategy strategy;
  };
  std::vector<Slot> slots(k);
  const auto plan_one = [&](std::size_t i) {
    const net::NodeId u = clients[i];
    Slot& slot = slots[i];
    slot.candidates =
        selectCandidates(u, topology.tree, lca_index, routing, servers);
    const StrategyGraph graph(topology.tree.depth(u), slot.candidates,
                              source_rtt[i], graph_options);
    slot.strategy = searchMinimalDelay(graph);
  };
  const unsigned threads = util::resolveThreadCount(options_.num_threads);
  if (threads <= 1 || k <= 1) {
    for (std::size_t i = 0; i < k; ++i) plan_one(i);
  } else {
    util::ThreadPool pool(threads);
    pool.parallelFor(0, k, plan_one);
  }

  strategies_.reserve(k);
  candidates_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    [[maybe_unused]] const Strategy& s = slots[i].strategy;
    RMRN_ENSURE(std::isfinite(s.expected_delay_ms) &&
                    s.expected_delay_ms >= 0.0,
                "planner: emitted delay must be finite and non-negative");
    strategies_.emplace(clients[i], std::move(slots[i].strategy));
    candidates_.emplace(clients[i], std::move(slots[i].candidates));
  }

  if (options_.audit) {
    const PlanAuditor auditor(topology, routing);
    const AuditReport report = auditor.auditPlanner(*this);
    if (!report.ok()) {
      throw std::logic_error("RpPlanner: plan audit failed\n" +
                             report.summary());
    }
  }
}

const Strategy& RpPlanner::strategyFor(net::NodeId client) const {
  const auto it = strategies_.find(client);
  if (it == strategies_.end()) {
    throw std::out_of_range("RpPlanner: unknown client");
  }
  return it->second;
}

Strategy RpPlanner::replanExcluding(
    net::NodeId client, std::span<const net::NodeId> blacklist) const {
  if (!strategies_.contains(client)) {
    throw std::out_of_range("RpPlanner: unknown client");
  }
  // Prune the blacklist from the base server set, then rerun the exact
  // construction-time pipeline (Lemma 4/5 candidate selection, strategy
  // graph, Algorithm 1) for this one client.
  std::vector<net::NodeId> servers = servers_;
  for (const net::NodeId banned : blacklist) {
    std::erase(servers, banned);
  }
  const std::vector<Candidate> candidates = selectCandidates(
      client, topology_->tree, lca_index_, *routing_, servers);
  const StrategyGraph graph(topology_->tree.depth(client), candidates,
                            routing_->rtt(client, topology_->source),
                            graph_options_);
  Strategy strategy = searchMinimalDelay(graph);
  RMRN_ENSURE(std::isfinite(strategy.expected_delay_ms) &&
                  strategy.expected_delay_ms >= 0.0,
              "planner: emitted delay must be finite and non-negative");
  return strategy;
}

const std::vector<Candidate>& RpPlanner::candidatesFor(
    net::NodeId client) const {
  const auto it = candidates_.find(client);
  if (it == candidates_.end()) {
    throw std::out_of_range("RpPlanner: unknown client");
  }
  return it->second;
}

}  // namespace rmrn::core
