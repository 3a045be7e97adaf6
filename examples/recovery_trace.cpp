// Recovery trace: loses one packet on a small network and prints the full
// ns-2-style packet trace of each protocol's recovery, side by side — the
// clearest way to *see* why RP's unicast request/repair beats RMA's scoped
// floods and SRM's whole-group floods.
//
// Usage: recovery_trace [seed]
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>

#include "core/planner.hpp"
#include "metrics/recovery_metrics.hpp"
#include "net/routing.hpp"
#include "protocols/rma_protocol.hpp"
#include "protocols/rp_protocol.hpp"
#include "protocols/srm_protocol.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace rmrn;

void runOne(const char* name, const net::Topology& topo,
            const net::Routing& routing,
            const std::function<std::unique_ptr<protocols::RecoveryProtocol>(
                sim::SimNetwork&, metrics::RecoveryMetrics&)>& make,
            const sim::LinkLossPattern& losses) {
  sim::Simulator simulator;
  sim::SimNetwork network(simulator, topo, routing, 0.0,
                          sim::lossSeedOf(util::Rng(1)));
  metrics::RecoveryMetrics recovery;
  sim::TraceRecorder trace;
  network.setTraceSink(&trace);

  auto protocol = make(network, recovery);
  protocol->attach();
  protocol->sourceMulticast(0, losses);
  simulator.run();

  std::cout << "=== " << name << " ===  (" << recovery.recoveries()
            << " recoveries, avg latency "
            << recovery.latency().mean() << " ms, recovery hops "
            << network.stats().recovery_hops << ")\n";
  trace.dump(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4;
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = 12;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);

  // Drop the tree link into the first client's parent (or the client
  // itself when it hangs directly off the source).
  const net::NodeId victim_client = topo.clients.front();
  const net::NodeId victim =
      topo.tree.parent(victim_client) == topo.source
          ? victim_client
          : topo.tree.parent(victim_client);
  sim::LinkLossPattern losses(topo.tree.numMembers(), false);
  losses[topo.tree.memberIndex(victim)] = true;

  std::cout << "Network: " << config.num_nodes << " nodes, source "
            << topo.source << ", clients " << topo.clients.size()
            << "; dropping the tree link into node " << victim << "\n\n";

  core::PlannerOptions planner_options;
  planner_options.per_peer_timeout_factor = 1.5;
  const core::RpPlanner planner(topo, routing, planner_options);

  runOne("RP", topo, routing,
         [&](sim::SimNetwork& net, metrics::RecoveryMetrics& m) {
           return std::make_unique<protocols::RpProtocol>(
               net, m, protocols::ProtocolConfig{}, planner);
         },
         losses);
  runOne("RMA", topo, routing,
         [](sim::SimNetwork& net, metrics::RecoveryMetrics& m) {
           return std::make_unique<protocols::RmaProtocol>(
               net, m, protocols::ProtocolConfig{});
         },
         losses);
  runOne("SRM", topo, routing,
         [](sim::SimNetwork& net, metrics::RecoveryMetrics& m) {
           return std::make_unique<protocols::SrmProtocol>(
               net, m, protocols::ProtocolConfig{}, protocols::SrmConfig{}, 99);
         },
         losses);
  return 0;
}
