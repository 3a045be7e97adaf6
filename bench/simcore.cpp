// Data-plane engine benchmarks: typed slab-backed event engine vs the
// pre-rewrite closure data plane, steady-state allocation rate, and a
// fig7-style end-to-end sweep.
//
// Two modes:
//   * Google Benchmark (default):
//       ./simcore [--benchmark_filter=...]
//   * JSON perf driver:
//       ./simcore --json BENCH_simcore.json [--requests 250000] [--repeats 3]
//     Writes BENCH_simcore.json (see README "Performance"): forwarding wall
//     time for the typed engine vs a faithful replica of the engine it
//     replaced (both must simulate the same campaign: equal deliveries, data
//     and recovery hops, and link load), timer-churn events/sec for the
//     cancel-heavy lane, heap allocations per steady-state event (this
//     binary links the counting allocator), and wall time for a seeded
//     fig7-style experiment.
//
// The legacy baseline replicates the data plane this PR removed, taken from
// the pre-rewrite sources rather than reinvented: one std::function heap
// entry per in-flight hop (captures this + the route vector + the 32-byte
// packet, far past libstdc++'s 16-byte small-buffer optimisation), a fresh
// route vector from Routing::path() per unicast send, a shared_ptr-owned
// loss pattern copied into every flood closure (one make_shared per flood,
// two atomic refcount ops per link event), and per-hop recovery accounting
// through an unordered_map keyed by endpoint pair.  The typed engine routes
// the same workload through slab-backed POD events, a per-send path arena,
// refcounted pattern-arena slots and flat CSR edge counters.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "harness/bench_json.hpp"
#include "harness/experiment.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/event.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_counter.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace rmrn;

// --- Legacy engine replica ------------------------------------------------

/// The old event queue: a binary heap of (time, seq, closure) entries plus a
/// tombstone set for cancel.
class LegacyEventQueue {
 public:
  using Id = std::uint64_t;

  Id schedule(double time, std::function<void()> action) {
    const Id id = next_id_++;
    heap_.push(Entry{time, id, std::move(action)});
    return id;
  }

  bool cancel(Id id) { return cancelled_.insert(id).second; }

  [[nodiscard]] bool empty() {
    skipCancelled();
    return heap_.empty();
  }

  [[nodiscard]] double nextTime() {
    skipCancelled();
    return heap_.top().time;
  }

  double popAndFire() {
    skipCancelled();
    const double time = heap_.top().time;
    // const_cast as the old engine did: top() is const but the entry is
    // about to be destroyed.
    auto action = std::move(const_cast<Entry&>(heap_.top()).action);
    heap_.pop();
    action();
    return time;
  }

 private:
  struct Entry {
    double time;
    Id id;
    std::function<void()> action;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  void skipCancelled() {
    while (!heap_.empty() && cancelled_.erase(heap_.top().id) > 0) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_set<Id> cancelled_;
  Id next_id_ = 0;
};

class LegacySimulator {
 public:
  [[nodiscard]] double now() const { return now_; }

  void scheduleAfter(double delay, std::function<void()> action) {
    queue_.schedule(now_ + delay, std::move(action));
  }

  void run() {
    while (!queue_.empty()) {
      now_ = queue_.nextTime();
      queue_.popAndFire();
      ++fired_;
    }
  }

  [[nodiscard]] std::uint64_t eventsProcessed() const { return fired_; }

 private:
  double now_ = 0.0;
  std::uint64_t fired_ = 0;
  LegacyEventQueue queue_;
};

/// Faithful replica of the pre-rewrite SimNetwork forwarding paths (traces
/// and fault injection elided — both were off in the measured runs).
class LegacyNetwork {
 public:
  using DeliveryHandler =
      std::function<void(net::NodeId at, const sim::Packet& packet)>;

  LegacyNetwork(LegacySimulator& simulator, const net::Topology& topology,
                const net::Routing& routing, double loss_prob, util::Rng rng)
      : simulator_(simulator),
        topology_(topology),
        routing_(routing),
        loss_prob_(loss_prob),
        rng_(rng),
        is_agent_(topology.graph.numNodes(), false) {
    is_agent_[topology.source] = true;
    for (const net::NodeId client : topology.clients) {
      is_agent_[client] = true;
    }
  }

  void setDeliveryHandler(DeliveryHandler handler) {
    handler_ = std::move(handler);
  }
  void enableLinkAccounting(bool enabled) { link_accounting_ = enabled; }
  /// The counters SimNetwork keeps too (data/recovery hops, deliveries).
  [[nodiscard]] const sim::NetworkStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t totalRecoveryLinkLoad() const {
    std::uint64_t total = 0;
    for (const auto& [link, count] : link_load_) total += count;
    return total;
  }

  void unicast(net::NodeId from, net::NodeId to, sim::Packet packet) {
    auto path = routing_.path(from, to);  // fresh vector per send
    forwardUnicast(std::move(path), 0, packet);
  }

  void multicastFromSource(sim::Packet packet,
                           const sim::LinkLossPattern* forced_loss) {
    std::shared_ptr<const sim::LinkLossPattern> shared_loss =
        forced_loss
            ? std::make_shared<const sim::LinkLossPattern>(*forced_loss)
            : nullptr;
    floodTree(topology_.tree.root(), net::kInvalidNode, packet,
              /*down_only=*/true, std::move(shared_loss));
  }

  void multicastGroup(net::NodeId from, sim::Packet packet) {
    floodTree(from, net::kInvalidNode, packet, /*down_only=*/false, nullptr);
  }

 private:
  struct LinkId {
    net::NodeId a;
    net::NodeId b;
    friend bool operator==(const LinkId&, const LinkId&) = default;
  };
  struct LinkIdHash {
    [[nodiscard]] std::size_t operator()(const LinkId& link) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(link.a) << 32) | link.b);
    }
  };

  void forwardUnicast(std::vector<net::NodeId> path, std::size_t hop,
                      sim::Packet packet) {
    const net::NodeId a = path[hop];
    const net::NodeId b = path[hop + 1];
    countHop(packet, a, b);
    if (rng_.bernoulli(loss_prob_)) return;
    const double delay = *topology_.graph.edgeDelay(a, b);
    const bool final_hop = hop + 2 == path.size();
    simulator_.scheduleAfter(
        delay,
        [this, path = std::move(path), hop, packet, final_hop]() mutable {
          if (final_hop) {
            deliver(path[hop + 1], packet);
          } else {
            forwardUnicast(std::move(path), hop + 1, packet);
          }
        });
  }

  void floodTree(net::NodeId node, net::NodeId came_from, sim::Packet packet,
                 bool down_only,
                 std::shared_ptr<const sim::LinkLossPattern> forced_loss) {
    const auto& tree = topology_.tree;
    const auto sendAcross = [&](net::NodeId next, net::NodeId link_child) {
      countHop(packet, node, next);
      const bool lost = forced_loss
                            ? (*forced_loss)[tree.memberIndex(link_child)]
                            : rng_.bernoulli(loss_prob_);
      if (lost) return;
      const double delay =
          *topology_.graph.edgeDelay(tree.parent(link_child), link_child);
      simulator_.scheduleAfter(
          delay, [this, next, node, packet, down_only, forced_loss] {
            deliver(next, packet);
            floodTree(next, node, packet, down_only, forced_loss);
          });
    };
    if (!down_only && node != tree.root()) {
      const net::NodeId up = tree.parent(node);
      if (up != came_from) sendAcross(up, node);
    }
    for (const net::NodeId child : tree.children(node)) {
      if (child != came_from) sendAcross(child, child);
    }
  }

  void countHop(const sim::Packet& packet, net::NodeId from, net::NodeId to) {
    if (packet.type == sim::Packet::Type::kData) {
      ++stats_.data_hops;
      return;
    }
    ++stats_.recovery_hops;
    if (link_accounting_) {
      ++link_load_[LinkId{std::min(from, to), std::max(from, to)}];
    }
  }

  void deliver(net::NodeId at, const sim::Packet& packet) {
    if (!is_agent_[at] || !handler_) return;
    const std::size_t index = static_cast<std::size_t>(at) * 4 +
                              static_cast<std::size_t>(packet.type);
    if (deliveries_by_type_.size() <= index) {
      deliveries_by_type_.resize(topology_.graph.numNodes() * 4, 0);
    }
    ++deliveries_by_type_[index];
    ++stats_.deliveries;
    handler_(at, packet);
  }

  LegacySimulator& simulator_;
  const net::Topology& topology_;
  const net::Routing& routing_;
  double loss_prob_;
  util::Rng rng_;
  DeliveryHandler handler_;
  std::vector<bool> is_agent_;
  std::vector<std::uint64_t> deliveries_by_type_;
  bool link_accounting_ = false;
  sim::NetworkStats stats_;
  std::unordered_map<LinkId, std::uint64_t, LinkIdHash> link_load_;
};

// --- Forwarding workload --------------------------------------------------
//
// Identical drive logic for both engines: client-to-client REQUEST
// ping-pong chains (each delivery answers back to the sender, accumulating
// per-hop accounting), with a whole-group flood and a forced-pattern source
// multicast every 64th request.  Loss-free so the chains — and therefore the
// simulated outcome — are identical across engines.  Event counts are not:
// the legacy engine fires one event per link crossed, while SimNetwork's
// closed-form path fires one per agent delivery.

/// What a forwarding campaign simulated, comparable across engines.
struct ForwardingOutcome {
  std::uint64_t deliveries = 0;
  std::uint64_t data_hops = 0;
  std::uint64_t recovery_hops = 0;
  std::uint64_t link_load = 0;  // total recovery link traversals
  friend bool operator==(const ForwardingOutcome&,
                         const ForwardingOutcome&) = default;
};

template <typename Net>
ForwardingOutcome outcomeOf(const Net& net) {
  return {net.stats().deliveries, net.stats().data_hops,
          net.stats().recovery_hops, net.totalRecoveryLinkLoad()};
}

/// One forwarding campaign on a fresh network: the events its engine fired
/// and the outcome it simulated.
struct ForwardingRun {
  std::uint64_t events = 0;
  ForwardingOutcome outcome;
};

template <typename Net, typename Sim>
class ForwardingWorkload {
 public:
  ForwardingWorkload(Net& net, Sim& sim, const net::Topology& topo,
                     std::uint64_t target_requests)
      : net_(net),
        sim_(sim),
        topo_(topo),
        target_requests_(target_requests),
        no_loss_(topo.tree.numMembers(), false) {
    // [this] fits std::function's small-buffer storage, so installing the
    // handler does not itself allocate.
    net_.setDeliveryHandler(
        [this](net::NodeId at, const sim::Packet& packet) {
          onDeliver(at, packet);
        });
  }

  /// One campaign: seeds the chains, drains the queue, returns the events
  /// the engine processed.  Callable repeatedly on the same warmed network.
  std::uint64_t run() {
    requests_ = 0;
    const std::uint64_t before = sim_.eventsProcessed();
    const auto& clients = topo_.clients;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      sim::Packet packet{sim::Packet::Type::kRequest, i, clients[i],
                         clients[i], 0};
      net_.unicast(clients[i], clients[(i + 1) % clients.size()], packet);
    }
    sim_.run();
    return sim_.eventsProcessed() - before;
  }

 private:
  void onDeliver(net::NodeId at, const sim::Packet& packet) {
    if (packet.type != sim::Packet::Type::kRequest) return;
    if (++requests_ > target_requests_) return;
    sim::Packet reply = packet;
    reply.origin = at;
    reply.requester = at;
    net_.unicast(at, packet.origin, reply);
    if (requests_ % 64 == 0) {
      sim::Packet repair{sim::Packet::Type::kRepair, packet.seq, at, at, 0};
      net_.multicastGroup(at, repair);
      sim::Packet data{sim::Packet::Type::kData, packet.seq, topo_.source,
                       topo_.source, 0};
      net_.multicastFromSource(data, &no_loss_);
    }
  }

  Net& net_;
  Sim& sim_;
  const net::Topology& topo_;
  std::uint64_t target_requests_;
  sim::LinkLossPattern no_loss_;
  std::uint64_t requests_ = 0;
};

net::Topology makeTopology(std::uint32_t nodes, std::uint64_t seed) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = nodes;
  return net::generateTopology(config, rng);
}

ForwardingRun runLegacyForwarding(const net::Topology& topo,
                                  const net::Routing& routing,
                                  std::uint64_t target_requests) {
  LegacySimulator simulator;
  LegacyNetwork network(simulator, topo, routing, 0.0, util::Rng(11));
  network.enableLinkAccounting(true);
  ForwardingWorkload workload(network, simulator, topo, target_requests);
  const std::uint64_t events = workload.run();
  return {events, outcomeOf(network)};
}

ForwardingRun runTypedForwarding(const net::Topology& topo,
                                 const net::Routing& routing,
                                 std::uint64_t target_requests) {
  sim::Simulator simulator;
  sim::SimNetwork network(simulator, topo, routing, 0.0,
                          sim::lossSeedOf(util::Rng(11)));
  ForwardingWorkload workload(network, simulator, topo, target_requests);
  const std::uint64_t events = workload.run();
  return {events, outcomeOf(network)};
}

// --- Timer-churn workload -------------------------------------------------
//
// The protocols' timer pattern: a window of in-flight recovery sessions.
// Each fire reschedules its session's next step AND replaces the session's
// request timeout — a long timer (the per-peer timeout is many RTTs out)
// that is revoked early because the repair arrives first.  The old engine
// kept every revoked timer in its priority queue as a tombstone until the
// *timeout's* far-future expiry, so its heap carried thousands of dead
// entries; the slab queue frees the slot on cancel and compacts the heap
// index, keeping it proportional to the live count.

constexpr std::size_t kWindow = 256;
constexpr double kTimeoutMs = 4096.0;  // request timeout >> step delay

struct ChurnState {
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::uint64_t fired = 0;  // events popped by the driver loop
  std::uint64_t work = 0;   // side-effect accumulator written by handlers

  double nextDelay() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return 1.0 + static_cast<double>(rng >> 56);
  }
};

// >16-byte capture: defeats libstdc++'s std::function small-buffer
// optimisation exactly like the protocols' real closures did.
struct FatPayload {
  ChurnState* state;
  std::uint64_t a, b, c;
};

std::uint64_t runLegacyChurn(std::uint64_t total_events) {
  LegacyEventQueue queue;
  ChurnState state;
  std::vector<LegacyEventQueue::Id> timeout(kWindow, 0);
  std::vector<bool> timeout_set(kWindow, false);
  double t = 0.0;
  for (std::size_t i = 0; i < kWindow; ++i) {
    FatPayload payload{&state, i, i + 1, i + 2};
    queue.schedule(t += state.nextDelay(),
                   [payload] { payload.state->work += payload.a & 1; });
  }
  while (state.fired + kWindow < total_events && !queue.empty()) {
    const double now = queue.popAndFire();
    ++state.fired;
    FatPayload payload{&state, state.fired, 0, 0};
    queue.schedule(now + state.nextDelay(),
                   [payload] { payload.state->work += payload.a & 1; });
    // The repair arrived: revoke the session's previous request timeout and
    // arm the next one.
    const std::size_t session = state.fired % kWindow;
    if (timeout_set[session]) queue.cancel(timeout[session]);
    timeout[session] = queue.schedule(now + kTimeoutMs, [payload] {
      payload.state->work += payload.b;
    });
    timeout_set[session] = true;
  }
  for (std::size_t i = 0; i < kWindow; ++i) {
    if (timeout_set[i]) queue.cancel(timeout[i]);
  }
  while (!queue.empty()) {
    queue.popAndFire();
    ++state.fired;
  }
  return state.fired;
}

class CountingSink final : public sim::EventSink {
 public:
  void onEvent(const sim::EventRecord& event) override {
    fired += event.data.timer.a & 1;
  }
  std::uint64_t fired = 0;
};

std::uint64_t runTypedChurn(std::uint64_t total_events) {
  sim::EventQueue queue;
  CountingSink sink;
  ChurnState state;
  std::vector<sim::EventId> timeout(kWindow, 0);
  std::vector<bool> timeout_set(kWindow, false);
  sim::EventRecord record{sim::EventKind::kTimer, {}};
  double t = 0.0;
  for (std::size_t i = 0; i < kWindow; ++i) {
    record.data.timer = sim::TimerEvent{0, i, i + 1, i + 2};
    queue.scheduleEvent(t += state.nextDelay(), &sink, record);
  }
  double now = 0.0;
  while (state.fired + kWindow < total_events &&
         queue.fireNext(std::numeric_limits<double>::infinity(), &now)) {
    ++state.fired;
    record.data.timer = sim::TimerEvent{0, state.fired, 0, 0};
    queue.scheduleEvent(now + state.nextDelay(), &sink, record);
    const std::size_t session = state.fired % kWindow;
    if (timeout_set[session]) queue.cancel(timeout[session]);
    timeout[session] = queue.scheduleEvent(now + kTimeoutMs, &sink, record);
    timeout_set[session] = true;
  }
  for (std::size_t i = 0; i < kWindow; ++i) {
    if (timeout_set[i]) queue.cancel(timeout[i]);
  }
  while (queue.fireNext(std::numeric_limits<double>::infinity(), &now)) {
    ++state.fired;
  }
  return state.fired;
}

double wallMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

harness::ExperimentConfig fig7Config() {
  harness::ExperimentConfig config;
  config.num_packets = 60;
  config.data_interval_ms = 50.0;
  config.seed = 20030401;
  config.num_nodes = 120;
  config.loss_prob = 0.10;
  return config;
}

// --- Google Benchmark mode ------------------------------------------------

void BM_LegacyForwarding(benchmark::State& state) {
  const auto requests = static_cast<std::uint64_t>(state.range(0));
  const net::Topology topo = makeTopology(120, 7);
  const net::Routing routing(topo.graph);
  std::uint64_t events = 0;
  for (auto _ : state) {
    events = runLegacyForwarding(topo, routing, requests).events;
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_LegacyForwarding)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_TypedForwarding(benchmark::State& state) {
  const auto requests = static_cast<std::uint64_t>(state.range(0));
  const net::Topology topo = makeTopology(120, 7);
  const net::Routing routing(topo.graph);
  std::uint64_t events = 0;
  for (auto _ : state) {
    events = runTypedForwarding(topo, routing, requests).events;
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TypedForwarding)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_LegacyEngineChurn(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runLegacyChurn(events));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_LegacyEngineChurn)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_TypedEngineChurn(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runTypedChurn(events));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TypedEngineChurn)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_Fig7Experiment(benchmark::State& state) {
  const harness::ExperimentConfig config = fig7Config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::runExperiment(config));
  }
}
BENCHMARK(BM_Fig7Experiment)->Unit(benchmark::kMillisecond);

// --- JSON perf driver -----------------------------------------------------

int runJsonDriver(const std::string& out_path, std::uint64_t requests,
                  unsigned repeats) {
  const net::Topology topo = makeTopology(120, 7);
  const net::Routing routing(topo.graph);

  std::cerr << "[simcore] forwarding workload, " << requests
            << " requests x " << repeats << " repeat(s)\n";
  double legacy_fwd_ms = 0.0;
  double typed_fwd_ms = 0.0;
  ForwardingRun legacy_fwd;
  ForwardingRun typed_fwd;
  for (unsigned r = 0; r < repeats; ++r) {
    const double lm = wallMs(
        [&] { legacy_fwd = runLegacyForwarding(topo, routing, requests); });
    const double tm = wallMs(
        [&] { typed_fwd = runTypedForwarding(topo, routing, requests); });
    legacy_fwd_ms = r == 0 ? lm : std::min(legacy_fwd_ms, lm);
    typed_fwd_ms = r == 0 ? tm : std::min(typed_fwd_ms, tm);
  }
  // Both engines must simulate the same campaign; their event counts differ
  // by design (per link crossed vs per agent delivery).
  if (legacy_fwd.outcome != typed_fwd.outcome) {
    const auto print = [](const ForwardingOutcome& o) {
      std::cerr << o.deliveries << " deliveries, " << o.data_hops
                << " data hops, " << o.recovery_hops << " recovery hops, "
                << o.link_load << " link load";
    };
    std::cerr << "engine outcomes diverged: legacy ";
    print(legacy_fwd.outcome);
    std::cerr << " vs typed ";
    print(typed_fwd.outcome);
    std::cerr << "\n";
    return 1;
  }
  const double legacy_fwd_eps =
      static_cast<double>(legacy_fwd.events) / (legacy_fwd_ms / 1000.0);
  const double typed_fwd_eps =
      static_cast<double>(typed_fwd.events) / (typed_fwd_ms / 1000.0);
  const double fwd_speedup =
      typed_fwd_ms > 0.0 ? legacy_fwd_ms / typed_fwd_ms : 0.0;
  std::cerr << "  legacy: " << legacy_fwd_ms << " ms, " << legacy_fwd.events
            << " events\n  typed:  " << typed_fwd_ms << " ms, "
            << typed_fwd.events << " events\n  speedup: " << fwd_speedup
            << "x over " << typed_fwd.outcome.deliveries << " deliveries\n";

  const std::uint64_t churn_events = 2000000;
  std::cerr << "[simcore] timer churn, " << churn_events << " events\n";
  double legacy_churn_ms = 0.0;
  double typed_churn_ms = 0.0;
  for (unsigned r = 0; r < repeats; ++r) {
    const double lm = wallMs([&] { runLegacyChurn(churn_events); });
    const double tm = wallMs([&] { runTypedChurn(churn_events); });
    legacy_churn_ms = r == 0 ? lm : std::min(legacy_churn_ms, lm);
    typed_churn_ms = r == 0 ? tm : std::min(typed_churn_ms, tm);
  }
  const double legacy_churn_eps = churn_events / (legacy_churn_ms / 1000.0);
  const double typed_churn_eps = churn_events / (typed_churn_ms / 1000.0);
  std::cerr << "  legacy: " << legacy_churn_ms << " ms, typed: "
            << typed_churn_ms << " ms ("
            << typed_churn_eps / legacy_churn_eps << "x)\n";

  // Steady-state allocations through the REAL data plane: one warm-up
  // forwarding campaign sizes the slab, arenas and heap; a second identical
  // campaign on the same network must not allocate (alloc_counter.cpp is
  // linked into this binary).
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_events = 0;
  {
    sim::Simulator simulator;
    sim::SimNetwork network(simulator, topo, routing, 0.0,
                            sim::lossSeedOf(util::Rng(11)));
    ForwardingWorkload workload(network, simulator, topo, requests);
    workload.run();  // warm-up campaign sizes the slab, arenas and heap
    const util::AllocCounts before = util::allocCounts();
    steady_events = workload.run();
    const util::AllocCounts after = util::allocCounts();
    steady_allocs = after.allocations - before.allocations;
  }
  const double allocs_per_event =
      steady_events > 0
          ? static_cast<double>(steady_allocs) /
                static_cast<double>(steady_events)
          : 0.0;
  std::cerr << "  steady-state allocs: " << steady_allocs << " over "
            << steady_events << " forwarded events\n";

  // End-to-end: seeded fig7-style experiment (all three protocols).
  const harness::ExperimentConfig config = fig7Config();
  double fig7_ms = 0.0;
  std::uint64_t fig7_events = 0;
  for (unsigned r = 0; r < repeats; ++r) {
    harness::ExperimentResult result;
    const double ms = wallMs([&] { result = harness::runExperiment(config); });
    fig7_events = 0;
    for (const auto& p : result.protocols) fig7_events += p.events_processed;
    fig7_ms = r == 0 ? ms : std::min(fig7_ms, ms);
  }
  const double fig7_eps = static_cast<double>(fig7_events) / (fig7_ms / 1000.0);
  std::cerr << "  fig7-style sweep: " << fig7_ms << " ms, " << fig7_events
            << " events (" << fig7_eps << " events/sec)\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  harness::BenchReport report(
      "benchmark",
      "data-plane event engine (typed slab queue vs std::function baseline)");
  report.add("repeats", repeats)
      .add("forwarding",
           harness::JsonObject()
               .add("requests", requests)
               .add("deliveries", typed_fwd.outcome.deliveries)
               .add("recovery_hops", typed_fwd.outcome.recovery_hops)
               .add("events", legacy_fwd.events)
               .add("typed_events", typed_fwd.events)
               .add("legacy_wall_ms", legacy_fwd_ms)
               .add("legacy_events_per_sec", legacy_fwd_eps)
               .add("typed_wall_ms", typed_fwd_ms)
               .add("typed_events_per_sec", typed_fwd_eps)
               .add("speedup", fwd_speedup))
      .add("timer_churn",
           harness::JsonObject()
               .add("events", churn_events)
               .add("legacy_wall_ms", legacy_churn_ms)
               .add("legacy_events_per_sec", legacy_churn_eps)
               .add("typed_wall_ms", typed_churn_ms)
               .add("typed_events_per_sec", typed_churn_eps)
               .add("speedup", typed_churn_eps / legacy_churn_eps))
      .add("steady_state_allocs", harness::JsonObject()
                                      .add("events", steady_events)
                                      .add("allocations", steady_allocs)
                                      .add("allocs_per_event",
                                           allocs_per_event))
      .add("fig7_sweep", harness::JsonObject()
                             .add("nodes", config.num_nodes)
                             .add("loss_prob", config.loss_prob)
                             .add("packets", config.num_packets)
                             .add("wall_ms", fig7_ms)
                             .add("events", fig7_events)
                             .add("events_per_sec", fig7_eps));
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
    if (!json_path.empty()) {
      return runJsonDriver(
          json_path, flags.getUnsigned("requests", 250000),
          static_cast<unsigned>(flags.getUnsigned(
              "repeats", 3, std::numeric_limits<unsigned>::max())));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
