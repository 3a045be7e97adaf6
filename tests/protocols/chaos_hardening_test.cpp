// Chaos hardening (DESIGN.md §8 invariants I9/I10): request dedup absorbs
// network-duplicated NACKs without suppressing genuine retransmissions, a
// duplicate loss detection never spawns a second session (or orphans the
// first one's timer), the per-session watchdog guarantees bounded-time
// termination under a permanent partition, and the retry counter only moves
// on true same-target retransmissions — never on RTO-driven list advances.
#include <gtest/gtest.h>

#include "proto_fixture.hpp"
#include "protocols/parity_protocol.hpp"
#include "protocols/rp_protocol.hpp"
#include "protocols/srm_protocol.hpp"

namespace rmrn::protocols {
namespace {

using testutil::ProtoHarness;

// RP's overridable entry points are protected precisely so chaos tests can
// deliver crafted duplicates deterministically.
struct TestRpProtocol : RpProtocol {
  using RpProtocol::RpProtocol;
  using RpProtocol::onLossDetected;
  using RpProtocol::onRequest;
};

// Deep-topology RP rig: client 3's optimal strategy is exactly [4] with
// t_0 = 12 (see proto_fixture.hpp), so the first request target is pinned.
struct DeepRpRig {
  ProtoHarness base;
  core::RpPlanner planner;
  TestRpProtocol protocol;

  explicit DeepRpRig(ProtocolConfig config = {}, double loss_prob = 0.0,
                     std::uint64_t seed = 1)
      : base(loss_prob, seed, testutil::deepTopology()),
        planner(base.topo, base.routing, plannerOptions()),
        protocol(base.network, base.metrics, config, planner) {
    protocol.attach();
  }

  static core::PlannerOptions plannerOptions() {
    core::PlannerOptions options;
    options.timeout_ms = 12.0;
    return options;
  }
};

TEST(ChaosHardeningTest, DuplicatedRequestSuppressedButRetransmissionServed) {
  DeepRpRig rig;
  rig.base.network.enableChaos();
  rig.protocol.sourceMulticast(0, rig.base.lossInto({3}));
  rig.base.sim.run();
  ASSERT_TRUE(rig.protocol.allRecovered());
  // Chaos mode: the session's one request to peer 4 carried tag 1.
  const std::uint64_t repairs_before =
      rig.base.network.deliveriesAt(3, sim::Packet::Type::kRepair);

  // A link-duplicated copy of the already-served request arrives again: it
  // must be absorbed, not answered with a second repair (DESIGN.md §8 I9).
  rig.protocol.onRequest(4, sim::Packet{sim::Packet::Type::kRequest, 0, 3, 3,
                                        /*tag=*/1});
  rig.base.sim.run();
  EXPECT_EQ(rig.protocol.duplicateRequestsSuppressed(), 1u);
  EXPECT_EQ(rig.base.network.deliveriesAt(3, sim::Packet::Type::kRepair),
            repairs_before);

  // A genuine retransmission carries a fresh (newer) tag and is served.
  rig.protocol.onRequest(4, sim::Packet{sim::Packet::Type::kRequest, 0, 3, 3,
                                        /*tag=*/99});
  rig.base.sim.run();
  EXPECT_EQ(rig.base.network.deliveriesAt(3, sim::Packet::Type::kRepair),
            repairs_before + 1);
}

// Fires a crafted duplicate loss detection into the protocol mid-run.
struct DuplicateDetectInjector final : sim::EventSink {
  explicit DuplicateDetectInjector(TestRpProtocol& p) : protocol(&p) {}
  void onEvent(const sim::EventRecord&) override {
    protocol->onLossDetected(3, 0);
  }
  TestRpProtocol* protocol;
};

TEST(ChaosHardeningTest, DuplicateLossDetectionNeverOrphansTheLiveTimer) {
  DeepRpRig rig;
  // The natural detection fires at tree-arrival + detection delay; inject a
  // duplicate just after it, squarely inside the live session window (the
  // first repair needs a full peer round trip to land).  The duplicate must
  // bounce off the live session instead of overwriting its Session struct
  // (which would orphan the armed timer).
  const double detect_at = rig.base.network.treeArrivalDelay(3) +
                           ProtocolConfig{}.detection_delay_ms;
  DuplicateDetectInjector injector(rig.protocol);
  sim::EventRecord record{sim::EventKind::kTimer, {}};
  record.data.timer = sim::TimerEvent{99, 0, 0, 0};
  rig.base.sim.scheduleEventAt(detect_at + 0.5, &injector, record);

  rig.protocol.sourceMulticast(0, rig.base.lossInto({3}));
  rig.base.sim.run();
  EXPECT_EQ(rig.protocol.duplicateSessions(), 1u);
  EXPECT_TRUE(rig.protocol.allRecovered());
  // One session, one request: the duplicate neither restarted the walk nor
  // issued a second probe.
  EXPECT_EQ(rig.protocol.requestsSent(), 1u);
}

TEST(ChaosHardeningTest, TimeoutOnDeadPeerIsNotARetry) {
  // Satellite distinction: an RTO that advances the session to a NEW target
  // is a timeout, not a retransmission.  Peer 4 is crashed, so client 3's
  // first request dies, the timeout fires, and the session moves on to the
  // source — a fresh request.  retries stays 0.
  ProtocolConfig config;
  config.health.enabled = true;
  DeepRpRig rig(config);
  rig.base.network.setAgentFault(4, sim::AgentFault::kCrashed);
  rig.protocol.sourceMulticast(0, rig.base.lossInto({3}));
  rig.base.sim.run();
  EXPECT_TRUE(rig.protocol.allRecovered());
  EXPECT_EQ(rig.base.metrics.timeouts(), 1u);
  EXPECT_EQ(rig.base.metrics.retries(), 0u);
  EXPECT_EQ(rig.protocol.requestsSent(), 2u);  // peer 4, then the source
}

TEST(ChaosHardeningTest, LostSourceRepairForcesATrueRetransmission) {
  // With lossy recovery traffic the source leg can fail outright; the
  // session re-requests the SAME target, and only that re-send counts as a
  // retry.  Every retry therefore rode a timeout: retries <= timeouts.
  ProtocolConfig config;
  config.health.enabled = true;
  DeepRpRig rig(config, /*loss_prob=*/0.3, /*seed=*/11);
  rig.base.network.setAgentFault(4, sim::AgentFault::kCrashed);
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    rig.protocol.sourceMulticast(seq, rig.base.lossInto({3}));
  }
  rig.base.sim.run();
  EXPECT_TRUE(rig.protocol.allRecovered());
  EXPECT_GT(rig.base.metrics.retries(), 0u);
  EXPECT_GE(rig.base.metrics.timeouts(), rig.base.metrics.retries());
}

TEST(ChaosHardeningTest, WatchdogAbandonsPartitionedRpSessionInBoundedTime) {
  ProtocolConfig config;
  config.session_deadline_ms = 500.0;
  config.health.enabled = true;
  ProtoHarness h;
  core::RpPlanner planner(h.topo, h.routing, {});
  RpProtocol protocol(h.network, h.metrics, config, planner);
  protocol.attach();

  // Permanently cut client 3's only link: the data drop is detected from
  // ground truth, every recovery attempt dies on the down link, and the
  // watchdog must end the session explicitly (DESIGN.md §8 I10).
  h.network.stageLinkState(2, 3, 0.0, false);
  protocol.sourceMulticast(0, h.noLoss());
  h.sim.run();

  EXPECT_FALSE(h.network.reachableFromSource(3, h.sim.now()));
  EXPECT_EQ(h.metrics.losses(), 1u);
  EXPECT_EQ(h.metrics.recoveries(), 0u);
  EXPECT_EQ(h.metrics.abandonedSessions(), 1u);
  EXPECT_EQ(h.metrics.outstanding(), 0u);
  EXPECT_NO_THROW(protocol.finalizeRun());
}

TEST(ChaosHardeningTest, WatchdogBoundsSrmUnderPermanentPartition) {
  // SRM re-arms its request timer with backoff forever; without the
  // watchdog this run would never drain.  The test completing at all is the
  // liveness assertion.
  ProtocolConfig config;
  config.session_deadline_ms = 500.0;
  ProtoHarness h;
  SrmProtocol protocol(h.network, h.metrics, config, SrmConfig{},
                       util::Rng(7));
  protocol.attach();
  h.network.stageLinkState(2, 3, 0.0, false);
  protocol.sourceMulticast(0, h.noLoss());
  h.sim.run();
  EXPECT_EQ(h.metrics.abandonedSessions(), 1u);
  EXPECT_EQ(h.metrics.outstanding(), 0u);
  EXPECT_NO_THROW(protocol.finalizeRun());
}

TEST(ChaosHardeningTest, DuplicationStormSpawnsNoSecondSessions) {
  // End-to-end satellite regression: 50% per-link duplication floods every
  // request/repair with copies, yet no duplicate recovery session opens, no
  // timer is orphaned (the run drains), and everything recovers.
  ProtocolConfig config;
  config.session_deadline_ms = 5000.0;
  config.health.enabled = true;
  ProtoHarness h;
  h.network.setAllLinksDuplicationProb(0.5);
  core::RpPlanner planner(h.topo, h.routing, {});
  RpProtocol protocol(h.network, h.metrics, config, planner);
  protocol.attach();
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    protocol.sourceMulticast(seq, h.lossInto({3, 7}));
  }
  h.sim.run();
  EXPECT_GT(h.network.stats().duplicates_created, 0u);
  EXPECT_EQ(protocol.duplicateSessions(), 0u);
  EXPECT_GT(protocol.duplicateRequestsSuppressed(), 0u);
  EXPECT_TRUE(protocol.allRecovered());
  EXPECT_NO_THROW(protocol.finalizeRun());
}

TEST(ChaosHardeningTest, ParityAbsorbsDuplicatedNacksIdempotently) {
  // FEC is excluded from tag dedup (REQUEST.tag carries the needed-parity
  // count); duplicated NACKs must at worst trigger an extra wave whose
  // fresh-index parities every client absorbs idempotently.
  ProtocolConfig config;
  config.session_deadline_ms = 5000.0;
  ProtoHarness h;
  h.network.setAllLinksDuplicationProb(0.5);
  ParityConfig parity;
  parity.block_size = 4;
  ParityProtocol protocol(h.network, h.metrics, config, parity);
  protocol.attach();
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    protocol.sourceMulticast(seq, h.lossInto({3, 7}));
  }
  h.sim.run();
  EXPECT_GT(h.network.stats().duplicates_created, 0u);
  EXPECT_TRUE(protocol.allRecovered());
  EXPECT_NO_THROW(protocol.finalizeRun());
}

}  // namespace
}  // namespace rmrn::protocols
