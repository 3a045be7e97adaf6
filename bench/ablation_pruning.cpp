// Ablation: what the paper's pruning lemmas buy (analytic, Eq. (2)).
//
// Compares the expected recovery delay of:
//   * the Algorithm-1 optimum,
//   * the "visit every level" list (all candidates, descending DS — this is
//     RMA's nearest-upstream order),
//   * the single geographically nearest candidate,
//   * the direct-to-source fallback,
//   * random candidate subsets (the "locally random" strategies the
//     conclusion criticizes),
// averaged over all clients of random topologies.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "core/planner.hpp"
#include "harness/table.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

int main() {
  using namespace rmrn;
  std::cerr << "[ablation_pruning] strategy-choice ablation (analytic)\n";

  util::Rng rng(7);
  double optimal_sum = 0.0;
  double all_levels_sum = 0.0;
  double nearest_sum = 0.0;
  double source_sum = 0.0;
  double random_sum = 0.0;
  std::size_t count = 0;

  for (int topo_trial = 0; topo_trial < 10; ++topo_trial) {
    net::TopologyConfig config;
    config.num_nodes = 200;
    const net::Topology topo = net::generateTopology(config, rng);
    const net::Routing routing(topo.graph);
    const core::RpPlanner planner(topo, routing, core::PlannerOptions{});

    for (const net::NodeId u : topo.clients) {
      const auto& candidates = planner.candidatesFor(u);
      const core::DelayParams params{
          topo.tree.depth(u), routing.rtt(u, topo.source),
          planner.timeoutMs(), core::CostModel::kExpected};

      optimal_sum += planner.strategyFor(u).expected_delay_ms;
      all_levels_sum += core::expectedDelay(candidates, params);
      source_sum += params.rtt_source_ms;
      if (!candidates.empty()) {
        // Geographically nearest candidate = min RTT.
        const auto nearest = *std::min_element(
            candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.rtt_ms < b.rtt_ms; });
        const std::vector<core::Candidate> nearest_only{nearest};
        nearest_sum += core::expectedDelay(nearest_only, params);
        // Random subset (kept in valid descending order).
        std::vector<core::Candidate> random_subset;
        for (const auto& c : candidates) {
          if (rng.bernoulli(0.5)) random_subset.push_back(c);
        }
        random_sum += core::expectedDelay(random_subset, params);
      } else {
        nearest_sum += params.rtt_source_ms;
        random_sum += params.rtt_source_ms;
      }
      ++count;
    }
  }

  const auto avg = [count](double sum) {
    return sum / static_cast<double>(count);
  };
  harness::TextTable table({"strategy", "mean expected delay (ms)",
                            "vs optimal"});
  const double base = avg(optimal_sum);
  const auto row = [&](const std::string& name, double value) {
    // Appends rather than chained operator+: GCC 12 reports a -Wrestrict
    // false positive inside the chained std::string concatenation.
    std::string excess = "+";
    excess.append(harness::TextTable::num(100.0 * (value / base - 1.0), 1))
        .append("%");
    table.addRow({name, harness::TextTable::num(value), excess});
  };
  row("Algorithm 1 optimum", base);
  row("all levels (RMA order)", avg(all_levels_sum));
  row("nearest candidate only", avg(nearest_sum));
  row("random subset", avg(random_sum));
  row("direct to source", avg(source_sum));
  std::cout << "Ablation: expected delay by strategy choice (10 topologies, "
               "n = 200, "
            << count << " client instances)\n";
  table.print(std::cout);
  return 0;
}
