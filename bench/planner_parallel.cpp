// Parallel control-plane benchmarks: whole-group RP planning and routing
// table construction across a threads x topology-size sweep.
//
// Two modes:
//   * Google Benchmark (default):
//       ./planner_parallel [--benchmark_filter=...]
//   * JSON perf driver:
//       ./planner_parallel --json BENCH_planner.json
//           [--nodes 2800] [--threads 1,2,4,8] [--repeats 2]
//     Times whole-group planning (sparse routing + RpPlanner) at each thread
//     count on one >= 1k-client topology and dense vs sparse routing builds,
//     then writes BENCH_planner.json so later PRs have a perf trajectory to
//     regress against (see README "Performance").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "harness/bench_json.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace {

using namespace rmrn;

net::Topology makeTopology(std::uint32_t nodes, std::uint64_t seed) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = nodes;
  return net::generateTopology(config, rng);
}

std::vector<net::NodeId> plannerSources(const net::Topology& topo) {
  std::vector<net::NodeId> sources = topo.clients;
  sources.push_back(topo.source);
  return sources;
}

double wallMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

// --- Google Benchmark mode ------------------------------------------------

void BM_PlanGroupThreads(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const net::Topology topo = makeTopology(nodes, 7);
  const auto sources = plannerSources(topo);
  const net::Routing routing(topo.graph, sources, threads);
  core::PlannerOptions options;
  options.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RpPlanner(topo, routing, options));
  }
  state.counters["clients"] = static_cast<double>(topo.clients.size());
  state.counters["threads"] = threads;
}
BENCHMARK(BM_PlanGroupThreads)
    ->ArgsProduct({{200, 600, 1200}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_SparseRoutingThreads(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const net::Topology topo = makeTopology(nodes, 8);
  const auto sources = plannerSources(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Routing(topo.graph, sources, threads));
  }
  state.counters["rows"] = static_cast<double>(sources.size());
  state.counters["threads"] = threads;
}
BENCHMARK(BM_SparseRoutingThreads)
    ->ArgsProduct({{600, 1200}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_DenseVsSparseRouting(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const bool sparse = state.range(1) != 0;
  const net::Topology topo = makeTopology(nodes, 9);
  const auto sources = plannerSources(topo);
  for (auto _ : state) {
    if (sparse) {
      benchmark::DoNotOptimize(net::Routing(topo.graph, sources));
    } else {
      benchmark::DoNotOptimize(net::Routing(topo.graph));
    }
  }
  state.counters["rows"] =
      static_cast<double>(sparse ? sources.size() : topo.graph.numNodes());
}
BENCHMARK(BM_DenseVsSparseRouting)
    ->ArgsProduct({{600, 1200}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// --- JSON perf driver -----------------------------------------------------

std::vector<unsigned> parseThreadList(const std::string& list) {
  std::vector<unsigned> threads;
  std::stringstream stream(list);
  std::string token;
  while (std::getline(stream, token, ',')) {
    try {
      threads.push_back(static_cast<unsigned>(std::stoul(token)));
    } catch (const std::exception&) {
      std::cerr << "--threads expects a comma-separated list of integers, got '"
                << token << "'\n";
      std::exit(2);
    }
  }
  return threads;
}

int runJsonDriver(const std::string& out_path, std::uint32_t nodes,
                  const std::vector<unsigned>& thread_counts,
                  unsigned repeats) {
  std::cerr << "[planner_parallel] generating " << nodes
            << "-node topology...\n";
  const net::Topology topo = makeTopology(nodes, 7);
  const auto sources = plannerSources(topo);
  std::cerr << "  clients: " << topo.clients.size() << "\n";

  // Dense vs sparse routing build (sequential) — the algorithmic win that
  // holds even on one core.
  double dense_ms = 0.0;
  double sparse_ms = 0.0;
  for (unsigned r = 0; r < repeats; ++r) {
    const double d = wallMs([&] { net::Routing dense(topo.graph); });
    const double s = wallMs([&] { net::Routing sp(topo.graph, sources); });
    dense_ms = r == 0 ? d : std::min(dense_ms, d);
    sparse_ms = r == 0 ? s : std::min(sparse_ms, s);
  }
  std::cerr << "  routing build: dense " << dense_ms << " ms, sparse "
            << sparse_ms << " ms\n";

  const net::Routing routing(topo.graph, sources,
                             thread_counts.empty() ? 0 : thread_counts.back());

  struct SweepPoint {
    unsigned threads = 1;
    double wall_ms = 0.0;
  };
  std::vector<SweepPoint> sweep;
  for (const unsigned threads : thread_counts) {
    core::PlannerOptions options;
    options.num_threads = threads;
    double best = 0.0;
    for (unsigned r = 0; r < repeats; ++r) {
      const double ms =
          wallMs([&] { core::RpPlanner planner(topo, routing, options); });
      best = r == 0 ? ms : std::min(best, ms);
    }
    sweep.push_back({threads, best});
    std::cerr << "  plan group @ " << threads << " thread(s): " << best
              << " ms\n";
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  const double base_ms = sweep.empty() ? 0.0 : sweep.front().wall_ms;
  out << "{\n";
  out << "  \"benchmark\": \"whole-group RP planning (sparse routing rows "
         "prebuilt)\",\n";
  harness::writeBenchEnvelope(out);
  out << "  \"topology\": {\"nodes\": " << nodes
      << ", \"clients\": " << topo.clients.size()
      << ", \"seed\": 7},\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"routing_build\": {\"dense_rows\": " << topo.graph.numNodes()
      << ", \"dense_wall_ms\": " << dense_ms
      << ", \"sparse_rows\": " << sources.size()
      << ", \"sparse_wall_ms\": " << sparse_ms
      << ", \"sparse_speedup\": "
      << (sparse_ms > 0.0 ? dense_ms / sparse_ms : 0.0) << "},\n";
  out << "  \"plan_group_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    out << "    {\"threads\": " << sweep[i].threads
        << ", \"wall_ms\": " << sweep[i].wall_ms << ", \"speedup_vs_1\": "
        << (sweep[i].wall_ms > 0.0 ? base_ms / sweep[i].wall_ms : 0.0)
        << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::uint32_t nodes = 2800;  // ~n/e leaves => >= 1k clients
  std::vector<unsigned> threads{1, 2, 4, 8};
  unsigned repeats = 2;
  std::vector<char*> bench_args{argv, argv + argc};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = next();
    } else if (arg == "--nodes") {
      nodes = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--threads") {
      threads = parseThreadList(next());
    } else if (arg == "--repeats") {
      repeats = static_cast<unsigned>(std::stoul(next()));
    }
  }
  if (!json_path.empty()) {
    return runJsonDriver(json_path, nodes, threads, repeats);
  }
  int bench_argc = argc;
  benchmark::Initialize(&bench_argc, bench_args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
