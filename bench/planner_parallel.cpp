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
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "harness/bench_json.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/flags.hpp"
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
  harness::BenchReport report(
      "benchmark", "whole-group RP planning (sparse routing rows prebuilt)");
  report.add("topology", harness::JsonObject()
                             .add("nodes", nodes)
                             .add("clients", topo.clients.size())
                             .add("seed", 7))
      .add("repeats", repeats)
      .add("routing_build",
           harness::JsonObject()
               .add("dense_rows", topo.graph.numNodes())
               .add("dense_wall_ms", dense_ms)
               .add("sparse_rows", sources.size())
               .add("sparse_wall_ms", sparse_ms)
               .add("sparse_speedup",
                    sparse_ms > 0.0 ? dense_ms / sparse_ms : 0.0));
  std::vector<harness::JsonObject> rows;
  for (const SweepPoint& point : sweep) {
    rows.push_back(harness::JsonObject()
                       .add("threads", point.threads)
                       .add("wall_ms", point.wall_ms)
                       .add("speedup_vs_1", point.wall_ms > 0.0
                                                ? base_ms / point.wall_ms
                                                : 0.0));
  }
  report.add("plan_group_sweep", rows);
  out << report;
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --json PATH writes the JSON report; otherwise google-benchmark runs.
  try {
    const util::Flags flags(argc, argv);
    const std::string json_path = flags.getString("json", "");
    constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
    if (!json_path.empty()) {
      return runJsonDriver(
          json_path,
          // ~n/e leaves => >= 1k clients
          static_cast<std::uint32_t>(flags.getUnsigned("nodes", 2800, kMax)),
          flags.getList<std::uint32_t>("threads", "1,2,4,8", 0, kMax),
          static_cast<unsigned>(flags.getUnsigned("repeats", 2, kMax)));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
