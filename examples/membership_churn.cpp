// Membership churn: receivers join and leave while a one-shard ShardPlanner
// keeps every client's prioritized recovery list optimal, replanning only
// the strategies a change actually affects.
//
// Usage: membership_churn [num_nodes] [operations] [seed]
#include <cstdlib>
#include <iostream>
#include <limits>

#include "core/shard_planner.hpp"
#include "harness/table.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace rmrn;
  const auto num_nodes =
      static_cast<std::uint32_t>(argc > 1 ? std::atoi(argv[1]) : 150);
  const int operations = argc > 2 ? std::atoi(argv[2]) : 40;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 9;

  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = num_nodes;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);

  // One shard (the budget swallows any group) considers every client, so
  // plans equal a fresh RpPlanner's on this general-graph routing.
  core::ShardPlannerOptions options;
  options.planner.per_peer_timeout_factor = 1.5;
  options.max_shard_clients = std::numeric_limits<std::uint32_t>::max();
  core::ShardPlanner planner(topo, routing, options);

  std::cout << "Initial group: " << planner.numClients()
            << " clients on a " << num_nodes << "-node network\n\n";

  std::vector<net::NodeId> pool;
  for (const net::NodeId v : topo.tree.members()) {
    if (v != topo.source) pool.push_back(v);
  }

  harness::TextTable table({"op", "node", "group size", "replans",
                            "replan fraction"});
  std::size_t total_replans = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  for (int op = 0; op < operations; ++op) {
    const net::NodeId v =
        pool[static_cast<std::size_t>(rng.uniformInt(pool.size()))];
    const bool is_client = planner.partition().isClient(v);
    if (is_client && planner.numClients() > 2) {
      planner.removeClient(v);
      ++leaves;
      table.addRow({"leave", std::to_string(v),
                    std::to_string(planner.numClients()),
                    std::to_string(planner.lastReplans()),
                    harness::TextTable::num(
                        static_cast<double>(planner.lastReplans()) /
                            static_cast<double>(planner.numClients()),
                        2)});
    } else if (!is_client) {
      planner.addClient(v);
      ++joins;
      table.addRow({"join", std::to_string(v),
                    std::to_string(planner.numClients()),
                    std::to_string(planner.lastReplans()),
                    harness::TextTable::num(
                        static_cast<double>(planner.lastReplans()) /
                            static_cast<double>(planner.numClients()),
                        2)});
    } else {
      continue;
    }
    total_replans += planner.lastReplans();
  }
  table.print(std::cout);
  std::cout << "\n" << joins << " joins, " << leaves << " leaves, "
            << total_replans << " strategy recomputations total (a full "
            << "rebuild per change would have cost ~"
            << (joins + leaves) * planner.numClients() << ")\n";
  return 0;
}
