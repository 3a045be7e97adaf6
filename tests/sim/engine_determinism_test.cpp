// Golden pins for the typed event engine.
//
// The data plane was rewritten from type-erased std::function events to
// typed slab-backed records (sim/event.hpp, event_queue.hpp).  Determinism
// is part of the engine's contract: identical seeds must produce identical
// packet schedules, RNG draw orders and metric values.  The literals below
// were captured from seeded runs of the PRE-rewrite engine
// (priority_queue + unordered_set + std::function); the rewritten engine
// must reproduce them bit-for-bit — full-precision doubles compared with
// EXPECT_EQ, and an FNV-1a hash over the complete ns-2-style packet trace.
//
// Each arm also pins its recovery digest (metrics::RecoveryMetrics), which
// folds every loss's detection time, end time, terminal kind and request
// count; it was captured when the digest was added, and moves when any one
// recovery does, even if every aggregate above holds.
//
// The SRM arms were re-captured once, when SRM's timer draws became keyed
// by (member, seq, arm, kind) instead of read from a sequential stream.
//
// If one of these values ever changes, the engine's event ordering changed:
// that is a behavioural regression, not a tolerance issue.  Do not widen
// the comparisons.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "harness/experiment.hpp"
#include "metrics/recovery_metrics.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "protocols/rp_protocol.hpp"
#include "sim/loss_process.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/scheduled_calls.hpp"
#include "util/rng.hpp"

namespace rmrn {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Seeded fig7-style RP run with a full packet trace: 60 nodes, 2% recovery
// loss, 10% data loss, 30 packets at 50ms intervals, stepped run() windows
// interleaved with scheduling (exercising cross-window event carry-over).
// The one pin here that draws recovery losses: its trace and latency were
// re-captured once when those became keyed (send, link) draws
// (sim/keyed_loss.hpp), which lose other packets than the old sequential
// stream did.  Its hash was re-captured once more when TraceRecorder's
// order became canonical (TraceEvent's comparison) instead of emission
// order within a time: the same 5540 records, dumped in another order.
TEST(EngineDeterminismTest, TraceBitIdenticalToPreRewriteEngine) {
  util::Rng rng(424242);
  net::TopologyConfig topo_config;
  topo_config.num_nodes = 60;
  const net::Topology topo = net::generateTopology(topo_config, rng);
  const net::Routing routing(topo.graph);
  core::PlannerOptions options;
  options.per_peer_timeout_factor = 1.5;
  const core::RpPlanner planner(topo, routing, options);

  sim::Simulator simulator;
  sim::SimNetwork network(simulator, topo, routing, 0.02,
                          sim::lossSeedOf(util::Rng(7)));
  metrics::RecoveryMetrics metrics;
  protocols::ProtocolConfig config;
  protocols::RpProtocol protocol(network, metrics, config, planner,
                                 protocols::SourceRecoveryMode::kUnicast);
  sim::TraceRecorder recorder;
  network.setTraceSink(&recorder);
  protocol.attach();

  sim::BernoulliLossProcess loss(topo.tree.numMembers(), 0.10, util::Rng(99));
  test_support::ScheduledCalls calls(simulator);
  for (std::uint64_t i = 0; i < 30; ++i) {
    const auto pattern = loss.nextPattern();
    calls.at(static_cast<double>(i) * 50.0,
             [&protocol, pattern, i] { protocol.sourceMulticast(i, pattern); });
    simulator.run(static_cast<double>(i) * 50.0 + 49.999);
  }
  simulator.run();

  std::ostringstream dump;
  recorder.dump(dump);
  EXPECT_EQ(recorder.events().size(), 5540u);
  EXPECT_EQ(fnv1a(dump.str()), 0x27f4c0a3e936e131ULL);
  EXPECT_EQ(topo.clients.size(), 22u);
  EXPECT_EQ(metrics.losses(), 358u);
  EXPECT_EQ(metrics.recoveries(), 358u);
  EXPECT_EQ(metrics.latency().mean(), 77.089315472478162);
}

struct GoldenProtocol {
  harness::ProtocolKind kind;
  std::size_t losses;
  std::size_t recoveries;
  double latency;
  double bandwidth;
  std::uint64_t recovery_hops;
  std::uint64_t data_hops;
  std::uint64_t source_requests;
  std::uint64_t max_link_load;
  std::uint64_t duplicates;
  std::uint64_t retries;
  std::size_t residual;
  std::uint64_t digest;  // RecoveryMetrics::digest()
};

void expectGolden(const harness::ExperimentResult& result,
                  const GoldenProtocol& golden) {
  SCOPED_TRACE(toString(golden.kind));
  const harness::ProtocolResult& p = result.result(golden.kind);
  EXPECT_EQ(p.losses, golden.losses);
  EXPECT_EQ(p.recoveries, golden.recoveries);
  EXPECT_EQ(p.avg_latency_ms, golden.latency);
  EXPECT_EQ(p.avg_bandwidth_hops, golden.bandwidth);
  EXPECT_EQ(p.recovery_hops, golden.recovery_hops);
  EXPECT_EQ(p.data_hops, golden.data_hops);
  EXPECT_EQ(p.source_requests, golden.source_requests);
  EXPECT_EQ(p.max_link_load, golden.max_link_load);
  EXPECT_EQ(p.duplicate_deliveries, golden.duplicates);
  EXPECT_EQ(p.retries, golden.retries);
  EXPECT_EQ(p.residual, golden.residual);
  EXPECT_EQ(p.recovery_digest, golden.digest)
      << std::hex << "0x" << p.recovery_digest;
  EXPECT_GT(p.events_processed, 0u);
}

// fig7-style point (n=120, p=10%, 60 packets), all three schemes against
// identical loss draws.
TEST(EngineDeterminismTest, Fig7StyleMetricsBitIdentical) {
  harness::ExperimentConfig config;
  config.num_packets = 60;
  config.data_interval_ms = 50.0;
  config.seed = 20030401;
  config.num_nodes = 120;
  config.loss_prob = 0.10;
  const harness::ExperimentResult result = harness::runExperiment(config);

  expectGolden(result,
               {harness::ProtocolKind::kSrm, 1471, 1471, 128.82245913392362,
                82.677090414683889, 121618, 3820, 414, 1022, 26497, 0, 0,
                0x31554754a8a2b11dULL});
  expectGolden(result,
               {harness::ProtocolKind::kRma, 1471, 1471, 91.048244028044579,
                22.949694085656017, 33759, 3820, 54, 706, 6839, 0, 0,
                0x0bde3c476f3a446dULL});
  expectGolden(result,
               {harness::ProtocolKind::kRp, 1471, 1471, 64.407365630814397,
                8.3358259687287557, 12262, 3820, 485, 542, 0, 0, 0,
                0xf12275a5ed931275ULL});
}

// fig5-style point (n=100, p=5%).
TEST(EngineDeterminismTest, Fig5StyleMetricsBitIdentical) {
  harness::ExperimentConfig config;
  config.num_packets = 60;
  config.data_interval_ms = 50.0;
  config.seed = 20030401 + 100;
  config.num_nodes = 100;
  config.loss_prob = 0.05;
  const harness::ExperimentResult result = harness::runExperiment(config);

  expectGolden(result,
               {harness::ProtocolKind::kSrm, 845, 845, 168.84098410856399,
                107.5526627218935, 90882, 4042, 345, 918, 19783, 1, 0,
                0xae5f3ac6acb46a2cULL});
  expectGolden(result,
               {harness::ProtocolKind::kRma, 845, 845, 129.74572328817021,
                33.829585798816566, 28586, 4042, 22, 468, 6915, 0, 0,
                0xaeb64e59383e4036ULL});
  expectGolden(result,
               {harness::ProtocolKind::kRp, 845, 845, 51.456920799622246,
                7.1514792899408288, 6043, 4042, 177, 378, 0, 0, 0,
                0x9eb933d8e548e127ULL});
}

// Resilience-style faulted run: crash 20% of clients mid-campaign; exercises
// fault injection, adaptive timeouts, failover replans and typed timers
// through the cancel-heavy path.
TEST(EngineDeterminismTest, FaultedRunMetricsBitIdentical) {
  harness::ExperimentConfig config;
  config.num_packets = 40;
  config.data_interval_ms = 50.0;
  config.seed = 909;
  config.num_nodes = 80;
  config.loss_prob = 0.05;
  config.faults.crash_fraction = 0.2;
  config.faults.at_ms = 400.0;
  config.faults.seed = 5;
  const harness::ProtocolKind kinds[] = {harness::ProtocolKind::kRp};
  const harness::ExperimentResult result =
      harness::runExperiment(config, kinds);

  expectGolden(result,
               {harness::ProtocolKind::kRp, 362, 358, 61.823679899161782,
                7.7849162011173183, 2787, 2387, 145, 237, 0, 0, 0,
                0x18d836f1385d6e12ULL});
}

}  // namespace
}  // namespace rmrn
