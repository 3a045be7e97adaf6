// End-to-end Monte-Carlo validation: the RP planner's analytic objective
// must predict the protocol's *simulated* recovery latency once the model's
// assumptions are matched (low loss on recovery traffic, actual per-target
// waits as failure costs).
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/loss_model.hpp"
#include "core/objective.hpp"
#include "harness/experiment.hpp"
#include "metrics/recovery_metrics.hpp"
#include "net/routing.hpp"
#include "protocols/rp_protocol.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rmrn {
namespace {

// Expected recovery delay of a client's strategy using the protocol's real
// wait times (timeout_factor * rtt per target) instead of the planner's
// fixed t_0.  Under single-link loss this is what the simulation should
// average to.
double predictedLatency(net::NodeId u, const core::Strategy& strategy,
                        const net::Topology& topo, const net::Routing& routing,
                        const protocols::ProtocolConfig& config) {
  const net::HopCount ds_u = topo.tree.depth(u);
  net::HopCount window = ds_u;
  double reach = 1.0;
  double total = 0.0;
  for (const core::Candidate& c : strategy.peers) {
    const double p_success = core::probPeerHasPacket(c.ds, window);
    const double wait = std::max(config.min_timeout_ms,
                                 config.timeout_factor * c.rtt_ms);
    total += reach * (p_success * c.rtt_ms + (1.0 - p_success) * wait);
    reach *= 1.0 - p_success;
    window = core::shrinkLossWindow(window, c.ds);
  }
  total += reach * routing.rtt(u, topo.source);
  return total;
}

TEST(MonteCarloTest, SimulatedRpLatencyMatchesAnalyticPrediction) {
  // One random topology; per packet, fail exactly ONE uniformly chosen tree
  // link (the paper's reliable-network regime); recovery traffic loss-free.
  util::Rng rng(2024);
  net::TopologyConfig topo_config;
  topo_config.num_nodes = 80;
  util::Rng topo_rng = rng.fork(1);
  const net::Topology topo = net::generateTopology(topo_config, topo_rng);
  const net::Routing routing(topo.graph);

  const core::RpPlanner planner(topo, routing, core::PlannerOptions{});

  sim::Simulator simulator;
  sim::SimNetwork network(simulator, topo, routing, /*loss_prob=*/0.0,
                          sim::lossSeedOf(rng.fork(2)));
  metrics::RecoveryMetrics recovery;
  protocols::ProtocolConfig proto_config;
  protocols::RpProtocol protocol(network, recovery, proto_config, planner);
  protocol.attach();

  // Track per-client latency sums to compare per-client predictions.
  std::unordered_map<net::NodeId, metrics::Accumulator> per_client;
  const auto& tree = topo.tree;
  util::Rng link_rng = rng.fork(3);

  constexpr std::uint64_t kPackets = 4000;
  std::vector<std::pair<net::NodeId, std::uint64_t>> expected_losses;
  for (std::uint64_t seq = 0; seq < kPackets; ++seq) {
    // Pick a uniform random non-root tree member; fail its parent link.
    const auto& members = tree.members();
    net::NodeId victim;
    do {
      victim = members[static_cast<std::size_t>(
          link_rng.uniformInt(members.size()))];
    } while (victim == tree.root());
    sim::LinkLossPattern pattern(tree.numMembers(), false);
    pattern[tree.memberIndex(victim)] = true;

    for (const net::NodeId c : topo.clients) {
      if (tree.isAncestor(victim, c)) expected_losses.emplace_back(c, seq);
    }
    protocol.sourceMulticast(seq, pattern);
    simulator.run();  // drain before the next packet to keep memory flat
  }

  ASSERT_EQ(recovery.losses(), expected_losses.size());
  ASSERT_TRUE(protocol.allRecovered());

  // Aggregate predicted vs simulated over all recoveries: the per-loss
  // prediction depends only on the client, so weight by loss counts.
  std::unordered_map<net::NodeId, std::uint64_t> loss_count;
  for (const auto& [c, seq] : expected_losses) ++loss_count[c];

  double predicted_total = 0.0;
  for (const auto& [c, count] : loss_count) {
    predicted_total += static_cast<double>(count) *
                       predictedLatency(c, planner.strategyFor(c), topo,
                                        routing, proto_config);
  }
  const double predicted_mean =
      predicted_total / static_cast<double>(expected_losses.size());
  const double simulated_mean = recovery.latency().mean();

  // Cross-client interference (a peer that lost the same packet may have
  // recovered by the time the request arrives) can only speed recovery up,
  // so allow a modest band around the independent-recovery prediction.
  EXPECT_NEAR(simulated_mean, predicted_mean, predicted_mean * 0.12)
      << "simulated=" << simulated_mean << " predicted=" << predicted_mean;
}

TEST(MonteCarloTest, ConditionalSuccessFrequenciesMatchLemma1) {
  // Generate single-link losses and check the empirical success rate of the
  // FIRST strategy request against Lemma 1, client by client (aggregated).
  util::Rng rng(55);
  net::TopologyConfig topo_config;
  topo_config.num_nodes = 60;
  util::Rng topo_rng = rng.fork(1);
  const net::Topology topo = net::generateTopology(topo_config, topo_rng);
  const net::Routing routing(topo.graph);
  const core::RpPlanner planner(topo, routing, core::PlannerOptions{});
  const auto& tree = topo.tree;

  util::Rng link_rng = rng.fork(2);
  double predicted_successes = 0.0;
  std::uint64_t observed_successes = 0;
  std::uint64_t trials = 0;
  for (int iter = 0; iter < 200000; ++iter) {
    const auto& members = tree.members();
    net::NodeId victim;
    do {
      victim = members[static_cast<std::size_t>(
          link_rng.uniformInt(members.size()))];
    } while (victim == tree.root());

    for (const net::NodeId c : topo.clients) {
      if (!tree.isAncestor(victim, c)) continue;  // c did not lose
      const auto& peers = planner.strategyFor(c).peers;
      if (peers.empty()) continue;
      ++trials;
      // Conditioned on "victim is an ancestor of c", the failed link is
      // uniform over c's root path — exactly Lemma 1's regime.  The first
      // peer succeeds iff the victim is not an ancestor of the peer.
      if (!tree.isAncestor(victim, peers[0].peer)) ++observed_successes;
      predicted_successes += core::probPeerHasPacket(peers[0].ds,
                                                     tree.depth(c));
    }
    if (trials > 300000) break;
  }
  ASSERT_GT(trials, 1000u);
  const double observed =
      static_cast<double>(observed_successes) / static_cast<double>(trials);
  const double predicted = predicted_successes / static_cast<double>(trials);
  EXPECT_NEAR(observed, predicted, 0.02);
}

}  // namespace
}  // namespace rmrn
