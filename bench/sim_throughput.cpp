// Simulator-engine microbenchmarks (google-benchmark): event queue
// throughput, hop-by-hop unicast forwarding, tree multicast flooding, and a
// full three-protocol experiment — the numbers that bound how large a
// campaign the harness can run.
#include <benchmark/benchmark.h>

#include <limits>

#include "harness/experiment.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace rmrn;

/// Timer sink that only counts, so the loops below time the queue itself.
class CountingSink final : public sim::EventSink {
 public:
  void onEvent(const sim::EventRecord& /*event*/) override { ++fired; }
  std::uint64_t fired = 0;
};

/// Fires every pending event.
void drain(sim::EventQueue& queue) {
  sim::TimeMs clock = 0.0;
  while (queue.fireNext(std::numeric_limits<sim::TimeMs>::infinity(), &clock)) {
  }
  benchmark::DoNotOptimize(clock);
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniformReal(0.0, 1000.0);
  const sim::EventRecord record{sim::EventKind::kTimer, {}};
  for (auto _ : state) {
    sim::EventQueue queue;
    CountingSink sink;
    for (const double t : times) queue.scheduleEvent(t, &sink, record);
    drain(queue);
    benchmark::DoNotOptimize(sink.fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // Half of all events cancelled before firing (the protocols' usual
  // timer pattern).
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const sim::EventRecord record{sim::EventKind::kTimer, {}};
  for (auto _ : state) {
    sim::EventQueue queue;
    CountingSink sink;
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(
          queue.scheduleEvent(rng.uniformReal(0.0, 1000.0), &sink, record));
    }
    for (std::size_t i = 0; i < n; i += 2) queue.cancel(ids[i]);
    drain(queue);
    benchmark::DoNotOptimize(sink.fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(10000)->Arg(100000);

/// Takes every arrival and does nothing with it.
struct NullSink final : sim::DeliverySink {
  void deliver(net::NodeId, const sim::Packet&) override {}
};

struct NetFixture {
  net::Topology topo;
  net::Routing routing;
  NetFixture(std::uint32_t n, std::uint64_t seed)
      : topo(make(n, seed)), routing(topo.graph) {}
  static net::Topology make(std::uint32_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    net::TopologyConfig config;
    config.num_nodes = n;
    return net::generateTopology(config, rng);
  }
};

void BM_UnicastForwarding(benchmark::State& state) {
  const NetFixture f(static_cast<std::uint32_t>(state.range(0)), 3);
  const net::NodeId a = f.topo.clients.front();
  const net::NodeId b = f.topo.clients.back();
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::SimNetwork network(simulator, f.topo, f.routing, 0.0,
                            sim::lossSeedOf(util::Rng(4)));
    NullSink sink;
    network.setDeliverySink(&sink);
    for (int i = 0; i < 100; ++i) {
      network.unicast(a, b,
                      sim::Packet{sim::Packet::Type::kRequest, 0, a, a, 0});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100);
}
BENCHMARK(BM_UnicastForwarding)->Arg(100)->Arg(400);

void BM_TreeMulticastFlood(benchmark::State& state) {
  const NetFixture f(static_cast<std::uint32_t>(state.range(0)), 5);
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::SimNetwork network(simulator, f.topo, f.routing, 0.0,
                            sim::lossSeedOf(util::Rng(6)));
    NullSink sink;
    network.setDeliverySink(&sink);
    for (std::uint64_t i = 0; i < 20; ++i) {
      network.multicastFromSource(
          sim::Packet{sim::Packet::Type::kData, i, f.topo.source,
                      net::kInvalidNode, 0});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 20 *
                          static_cast<std::int64_t>(f.topo.tree.numLinks()));
}
BENCHMARK(BM_TreeMulticastFlood)->Arg(100)->Arg(400);

void BM_FullExperiment(benchmark::State& state) {
  harness::ExperimentConfig config;
  config.num_nodes = static_cast<std::uint32_t>(state.range(0));
  config.loss_prob = 0.05;
  config.num_packets = 20;
  config.seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::runExperiment(config));
  }
}
BENCHMARK(BM_FullExperiment)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
