// Ablation: does the headline result depend on the topology model?
//
// The paper uses its own random-backbone construction; Waxman graphs were
// the standard alternative in the multicast literature of the era.  This
// bench repeats the three-protocol comparison on both models at matched
// sizes — the RP < RMA < SRM ordering should be a property of the scheme,
// not of the graph generator.
#include <iostream>

#include "figure_common.hpp"

int main() {
  using namespace rmrn;
  using namespace rmrn::bench;
  std::cerr << "[ablation_topology_model] tree-plus-edges vs Waxman\n";

  harness::TextTable table({"model", "clients", "protocol",
                            "avg latency (ms)", "avg bandwidth (hops)"});
  struct Variant {
    std::string name;
    net::BackboneModel model;
  };
  const Variant variants[] = {
      {"tree+edges (paper)", net::BackboneModel::kTreePlusEdges},
      {"Waxman", net::BackboneModel::kWaxman},
  };
  for (const Variant& v : variants) {
    harness::ExperimentConfig config = baseConfig();
    config.num_nodes = 200;
    config.loss_prob = 0.05;
    config.topology.model = v.model;
    const auto result = harness::runAveragedExperiment(config, 3);
    for (const auto& r : result.protocols) {
      table.addRow({v.name, harness::TextTable::num(result.num_clients, 0),
                    std::string(toString(r.kind)),
                    harness::TextTable::num(r.avg_latency_ms),
                    harness::TextTable::num(r.avg_bandwidth_hops)});
    }
    std::cerr << "  " << v.name << " done\n";
  }
  std::cout << "Ablation: topology model (n = 200, p = 5%)\n";
  table.print(std::cout);
  return 0;
}
