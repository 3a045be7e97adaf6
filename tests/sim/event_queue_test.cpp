#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "harness/world.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "protocols/rma_protocol.hpp"
#include "sim/fault_injector.hpp"
#include "sim/region_map.hpp"
#include "util/rng.hpp"

namespace rmrn::sim {
namespace {

constexpr TimeMs kAlways = std::numeric_limits<TimeMs>::infinity();

/// A timer record carrying `tag` in its first payload word.
EventRecord tagged(std::uint64_t tag) {
  EventRecord record{EventKind::kTimer, {}};
  record.data.timer = TimerEvent{0, tag, 0, 0};
  return record;
}

/// Records the tag of every event it receives, in firing order.
class TagSink final : public EventSink {
 public:
  void onEvent(const EventRecord& event) override {
    tags.push_back(event.data.timer.a);
  }
  std::vector<std::uint64_t> tags;
};

/// Fires every pending event; returns the firing times in order.
std::vector<TimeMs> drain(EventQueue& q) {
  std::vector<TimeMs> times;
  TimeMs clock = 0.0;
  while (q.fireNext(kAlways, &clock)) times.push_back(clock);
  return times;
}

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  TagSink sink;
  q.scheduleEvent(3.0, &sink, tagged(3));
  q.scheduleEvent(1.0, &sink, tagged(1));
  q.scheduleEvent(2.0, &sink, tagged(2));
  EXPECT_EQ(drain(q), (std::vector<TimeMs>{1.0, 2.0, 3.0}));
  EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  TagSink sink;
  for (std::uint64_t i = 0; i < 10; ++i) q.scheduleEvent(5.0, &sink, tagged(i));
  drain(q);
  EXPECT_EQ(sink.tags,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, DecidedEventsTieAsIfScheduledAtTheirStamp) {
  // Events due at t = 5 fire in the order of the time each was decided:
  // an ordinary event at the time it was scheduled, a decided one at its
  // stamp; equal stamps keep insertion order.
  EventQueue q;
  TagSink sink;
  TimeMs clock = 0.0;
  q.scheduleEvent(1.0, &sink, tagged(100));
  q.scheduleEvent(2.0, &sink, tagged(200));
  // Now 1: tag 1 counts as decided at 1, tag 2 ties with it and comes
  // later, tag 0 was decided earlier and tag 4 later; tag 50 is due first.
  ASSERT_TRUE(q.fireNext(kAlways, &clock));
  q.scheduleEvent(5.0, &sink, tagged(1));
  q.scheduleDecidedEvent(5.0, 0.5, &sink, tagged(0));
  q.scheduleDecidedEvent(5.0, 3.0, &sink, tagged(4));
  q.scheduleDecidedEvent(5.0, 1.0, &sink, tagged(2));
  q.scheduleDecidedEvent(4.0, 3.5, &sink, tagged(50));
  // Now 2: tag 3 counts as decided at 2.
  ASSERT_TRUE(q.fireNext(kAlways, &clock));
  q.scheduleEvent(5.0, &sink, tagged(3));
  EXPECT_EQ(q.nextTime(), 4.0);
  while (q.fireNext(kAlways, &clock)) {
  }
  EXPECT_EQ(sink.tags,
            (std::vector<std::uint64_t>{100, 200, 50, 0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelledEventsMakeWayForDecidedOnes) {
  // A cancelled ordinary event at the head never hides a decided one.
  EventQueue q;
  TagSink sink;
  const EventId gone = q.scheduleEvent(2.0, &sink, tagged(1));
  q.scheduleDecidedEvent(3.0, 1.0, &sink, tagged(2));
  q.scheduleEvent(4.0, &sink, tagged(3));
  EXPECT_TRUE(q.cancel(gone));
  EXPECT_EQ(q.nextTime(), 3.0);
  EXPECT_EQ(drain(q), (std::vector<TimeMs>{3.0, 4.0}));
  EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{2, 3}));
}

TEST(EventQueueTest, OrdersSignedAndExtremeTimes) {
  // The heap compares an integer image of each time: negative, zero and
  // extreme finite times must keep double order, and -0.0 ties with +0.0
  // (insertion order decides).
  EventQueue q;
  TagSink sink;
  const std::vector<TimeMs> times = {5.0,  -3.0, 0.0,     -0.0,
                                     1e300, 2.5, -1e300, 1e-300};
  for (std::uint64_t i = 0; i < times.size(); ++i) {
    q.scheduleEvent(times[i], &sink, tagged(i));
  }
  EXPECT_DOUBLE_EQ(q.nextTime(), -1e300);
  EXPECT_EQ(drain(q), (std::vector<TimeMs>{-1e300, -3.0, 0.0, 0.0, 1e-300,
                                           2.5, 5.0, 1e300}));
  EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{6, 1, 2, 3, 7, 5, 0, 4}));
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  TagSink sink;
  q.scheduleEvent(7.0, &sink, tagged(0));
  q.scheduleEvent(2.0, &sink, tagged(0));
  EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  TagSink sink;
  const EventId id = q.scheduleEvent(1.0, &sink, tagged(1));
  q.scheduleEvent(2.0, &sink, tagged(10));
  EXPECT_TRUE(q.cancel(id));
  drain(q);
  EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{10}));
}

TEST(EventQueueTest, CancelReturnsFalseTwice) {
  EventQueue q;
  TagSink sink;
  const EventId id = q.scheduleEvent(1.0, &sink, tagged(0));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueueTest, CancelledHeadIsSkipped) {
  EventQueue q;
  TagSink sink;
  const EventId first = q.scheduleEvent(1.0, &sink, tagged(0));
  q.scheduleEvent(2.0, &sink, tagged(0));
  q.cancel(first);
  EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
  EXPECT_EQ(q.pendingCount(), 1u);
}

TEST(EventQueueTest, EmptyAfterAllCancelled) {
  EventQueue q;
  TagSink sink;
  const EventId a = q.scheduleEvent(1.0, &sink, tagged(0));
  const EventId b = q.scheduleEvent(2.0, &sink, tagged(0));
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PopReturnsTimeAndId) {
  // fireNext reports the fired event's time and dispatches that very event
  // (its payload), and only when it is due by the bound.
  EventQueue q;
  TagSink sink;
  q.scheduleEvent(4.5, &sink, tagged(42));
  TimeMs clock = -1.0;
  EXPECT_FALSE(q.fireNext(4.0, &clock));
  EXPECT_DOUBLE_EQ(clock, -1.0);
  EXPECT_TRUE(q.fireNext(4.5, &clock));
  EXPECT_DOUBLE_EQ(clock, 4.5);
  EXPECT_DOUBLE_EQ(q.lastFiredTime(), 4.5);
  EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{42}));
}

TEST(EventQueueTest, ThrowsOnNonFiniteTime) {
  EventQueue q;
  TagSink sink;
  EXPECT_THROW(q.scheduleEvent(std::numeric_limits<double>::quiet_NaN(), &sink,
                               tagged(0)),
               std::invalid_argument);
  EXPECT_THROW(q.scheduleEvent(kAlways, &sink, tagged(0)),
               std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ThrowsOnPopWhenEmpty) {
  EventQueue q;
  TimeMs clock = 3.0;
  EXPECT_FALSE(q.fireNext(kAlways, &clock));
  EXPECT_DOUBLE_EQ(clock, 3.0);
  EXPECT_THROW((void)q.nextTime(), std::logic_error);
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  TagSink sink;
  // Deterministic pseudo-random times; verify global ordering on fire.
  std::uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    q.scheduleEvent(static_cast<double>(state % 1000), &sink, tagged(0));
  }
  const std::vector<TimeMs> times = drain(q);
  ASSERT_EQ(times.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

// ---- Sinks and payloads ---------------------------------------------------

TEST(EventQueueTypedTest, DispatchesToSinkWithPayload) {
  EventQueue q;
  class RecordingSink final : public EventSink {
   public:
    void onEvent(const EventRecord& event) override {
      events.push_back(event);
    }
    std::vector<EventRecord> events;
  } sink;
  EventRecord record{EventKind::kTimer, {}};
  record.data.timer = TimerEvent{7, 11, 22, 33};
  const EventId id = q.scheduleEvent(3.0, &sink, record);
  EXPECT_NE(id, 0u);
  TimeMs clock = 0.0;
  ASSERT_TRUE(q.fireNext(kAlways, &clock));
  EXPECT_DOUBLE_EQ(clock, 3.0);
  EXPECT_FALSE(q.cancel(id));  // fired: the handle is spent
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].kind, EventKind::kTimer);
  EXPECT_EQ(sink.events[0].data.timer.kind, 7u);
  EXPECT_EQ(sink.events[0].data.timer.a, 11u);
  EXPECT_EQ(sink.events[0].data.timer.b, 22u);
  EXPECT_EQ(sink.events[0].data.timer.c, 33u);
}

TEST(EventQueueTypedTest, RejectsNullSink) {
  EventQueue q;
  EXPECT_THROW(q.scheduleEvent(1.0, nullptr, tagged(0)),
               std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTypedTest, EqualTimestampOrderingAcrossSinks) {
  // Same-time events fire in exact insertion order whatever sink they go
  // to: a world's data send, a fault firing and a protocol timer share one
  // global sequence counter with plain test probes.  Each probe snapshots
  // what the previous event changed.
  util::Rng rng(17);
  net::TopologyConfig config;
  config.num_nodes = 30;
  const net::Topology topo = net::generateTopology(config, rng);
  const net::Routing routing(topo.graph);
  ASSERT_GE(topo.clients.size(), 2u);
  const net::NodeId victim = topo.clients[0];   // loses packet 0
  const net::NodeId crashed = topo.clients[1];  // crashes at t = 0

  std::vector<LinkLossPattern> patterns(1);
  patterns[0].assign(topo.tree.numMembers(), false);
  patterns[0][topo.tree.memberIndex(victim)] = true;  // victim's parent link

  const protocols::ProtocolConfig protocol_config;
  const protocols::SrmConfig srm;
  const protocols::ParityConfig parity;
  const protocols::CodedConfig coded;
  const RegionMap one_region(topo, 1);
  // The builder schedules the world's data send: packet 0 at t = 0.
  harness::RegionRun run(
      {.topology = topo,
       .routing = routing,
       .planner = nullptr,
       .patterns = patterns,
       .interval_ms = 10.0,
       .scheme = {harness::ProtocolKind::kRma, protocol_config, srm, parity,
                  coded},
       .recovery_loss = 0.0,
       .loss_seed = 1,
       .faults = nullptr,
       .scheme_seed = 2},
      one_region, /*workers=*/1);
  harness::World& world = run.world(0);
  const auto& rma =
      dynamic_cast<const protocols::RmaProtocol&>(*world.protocol);

  struct Snapshot {
    bool lost;
    bool crashed;
    std::uint64_t requests;
    bool operator==(const Snapshot&) const = default;
  };
  class Probe final : public EventSink {
   public:
    Probe(const harness::World& world, const protocols::RmaProtocol& rma,
          net::NodeId victim, net::NodeId crashed)
        : world_(world), rma_(rma), victim_(victim), crashed_(crashed) {}
    void onEvent(const EventRecord&) override {
      seen.push_back({world_.recovery.wasLost(victim_, 0),
                      world_.network.isAgentFailed(crashed_),
                      rma_.requestsSent()});
    }
    std::vector<Snapshot> seen;

   private:
    const harness::World& world_;
    const protocols::RmaProtocol& rma_;
    net::NodeId victim_;
    net::NodeId crashed_;
  } probe(world, rma, victim, crashed);

  world.simulator.scheduleEventAt(0.0, &probe, tagged(0));
  FaultInjector injector(world.network,
                         std::vector<FaultEvent>{{0.0, crashed}});
  injector.arm();  // FaultInjector: crash at t = 0
  world.simulator.scheduleEventAt(0.0, &probe, tagged(0));
  EventRecord detect{EventKind::kTimer, {}};
  detect.data.timer = TimerEvent{0, victim, 0, 0};  // loss-detection timer
  world.simulator.scheduleEventAt(0.0, world.protocol.get(), detect);
  world.simulator.scheduleEventAt(0.0, &probe, tagged(0));

  EXPECT_EQ(world.simulator.run(0.0), 6u);
  EXPECT_EQ(probe.seen, (std::vector<Snapshot>{{true, false, 0},
                                               {true, true, 0},
                                               {true, true, 1}}));
}

// ---- Flood-cursor lane ----------------------------------------------------

/// Logs every event it receives as one id: a cursor's flood id, else the
/// tag in its first payload word.  One instance is the cursor sink.
class LogSink final : public EventSink {
 public:
  explicit LogSink(std::vector<std::uint64_t>& log) : log_(log) {}
  void onEvent(const EventRecord& event) override {
    kinds.push_back(event.kind);
    switch (event.kind) {
      case EventKind::kFloodCursor:
        log_.push_back(event.data.cursor.flood);
        return;
      case EventKind::kDeliver:
        log_.push_back(event.data.deliver.at);
        return;
      case EventKind::kTimer:
        log_.push_back(event.data.timer.a);
        return;
    }
  }
  std::vector<EventKind> kinds;

 private:
  std::vector<std::uint64_t>& log_;
};

EventRecord delivery(std::uint32_t id) {
  EventRecord record{EventKind::kDeliver, {}};
  record.data.deliver = DeliverEvent{id, false, Packet{}};
  return record;
}

/// The one-heap reference order the queue must reproduce: every pending
/// event keyed (time, stamp, seq), an ordinary event's stamp the time it
/// was scheduled at.
struct ReferenceQueue {
  struct Pending {
    TimeMs at;
    TimeMs stamp;
    std::uint64_t seq;
    std::uint64_t id;
    EventId handle;  // 0 unless a cancellable slab event
  };
  std::vector<Pending> pending;
  std::uint64_t next_seq = 0;

  void add(TimeMs at, TimeMs stamp, std::uint64_t id, EventId handle = 0) {
    pending.push_back({at, stamp, next_seq++, id, handle});
  }
  /// Pops the first pending event; returns its id and sets *at.
  std::uint64_t pop(TimeMs* at) {
    const auto first = std::min_element(
        pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
          if (a.at != b.at) return a.at < b.at;
          if (a.stamp != b.stamp) return a.stamp < b.stamp;
          return a.seq < b.seq;
        });
    const std::uint64_t id = first->id;
    *at = first->at;
    pending.erase(first);
    return id;
  }
  void cancel(EventId handle) {
    std::erase_if(pending,
                  [handle](const Pending& p) { return p.handle == handle; });
  }
};

TEST(EventQueueLaneTest, MergesWithTheSlabHeapsInOneHeapOrder) {
  // Cursors, timers, deliveries and stamped events scheduled in random
  // interleavings onto a handful of bit-equal times, some timers cancelled,
  // firing interleaved with scheduling: every event fires in the reference
  // (time, stamp, seq) order.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    util::Rng rng(seed);
    EventQueue q;
    std::vector<std::uint64_t> log;
    LogSink cursors(log);
    LogSink others(log);
    ReferenceQueue reference;
    std::vector<std::uint64_t> expected;
    std::vector<EventId> cancellable;
    std::vector<std::uint32_t> free_floods;
    std::uint32_t next_flood = 0;
    TimeMs clock = 0.0;
    std::uint64_t next_id = 0;
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t choice = rng.uniformInt(12);
      // Times land on a coarse grid so bit-equal ties are common.
      const TimeMs at = clock + 0.5 * static_cast<TimeMs>(rng.uniformInt(4));
      // Slab events' ids lie past every flood id.
      const std::uint64_t id = EventQueue::kMaxFloods + next_id;
      if (choice < 4) {
        // A flood id is reused once its cursor fired, as the arena does.
        std::uint32_t flood;
        if (free_floods.empty()) {
          flood = next_flood++;
        } else {
          flood = free_floods.back();
          free_floods.pop_back();
        }
        q.scheduleCursor(at, &cursors, flood);
        reference.add(at, clock, flood);
      } else if (choice < 6) {
        cancellable.push_back(q.scheduleEvent(at, &others, tagged(id)));
        reference.add(at, clock, id, cancellable.back());
        ++next_id;
      } else if (choice < 7) {
        q.scheduleEvent(at, &others, delivery(static_cast<std::uint32_t>(id)));
        reference.add(at, clock, id);
        ++next_id;
      } else if (choice < 8) {
        // Decided up to a grid step before now (but not before zero).
        const TimeMs stamp =
            std::max(0.0, clock - 0.5 * static_cast<TimeMs>(rng.uniformInt(3)));
        q.scheduleDecidedEvent(at, stamp, &others, tagged(id));
        reference.add(at, stamp, id);
        ++next_id;
      } else if (choice < 9 && !cancellable.empty()) {
        const std::size_t pick = rng.uniformInt(cancellable.size());
        const bool live = q.cancel(cancellable[pick]);
        if (live) reference.cancel(cancellable[pick]);
        cancellable.erase(cancellable.begin() + pick);
      } else if (!q.empty()) {
        ASSERT_EQ(q.pendingCount(), reference.pending.size());
        TimeMs ref_at = 0.0;
        expected.push_back(reference.pop(&ref_at));
        ASSERT_EQ(q.nextTime(), ref_at);
        const std::size_t kinds_before = cursors.kinds.size();
        ASSERT_TRUE(q.fireNext(kAlways, &clock));
        ASSERT_EQ(clock, ref_at);
        ASSERT_EQ(log.back(), expected.back()) << "step " << step;
        if (cursors.kinds.size() > kinds_before) {
          free_floods.push_back(static_cast<std::uint32_t>(log.back()));
        }
      }
    }
    while (!q.empty()) {
      TimeMs ref_at = 0.0;
      expected.push_back(reference.pop(&ref_at));
      ASSERT_TRUE(q.fireNext(kAlways, &clock));
      ASSERT_EQ(clock, ref_at);
    }
    EXPECT_TRUE(reference.pending.empty());
    EXPECT_EQ(log, expected);
    for (const EventKind kind : cursors.kinds) {
      EXPECT_EQ(kind, EventKind::kFloodCursor);
    }
    EXPECT_EQ(q.firedOf(EventKind::kFloodCursor), cursors.kinds.size());
    EXPECT_GT(cursors.kinds.size(), 500u);
  }
}

TEST(EventQueueLaneTest, CancellingTimersAroundLiveCursors) {
  // Timers interleaved with cursors at equal times; cancelling every timer
  // (enough to trigger compaction) leaves the cursors in seq order, and
  // cancelling half leaves the rest interleaved as scheduled.
  EventQueue q;
  std::vector<std::uint64_t> log;
  LogSink cursors(log);
  LogSink timers(log);
  std::vector<EventId> doomed;
  std::vector<std::uint64_t> expected;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const TimeMs at = 1.0 + (i % 3);
    q.scheduleCursor(at, &cursors, i);
    const EventId keep = q.scheduleEvent(at, &timers, tagged(1000 + i));
    doomed.push_back(q.scheduleEvent(at, &timers, tagged(2000 + i)));
    if (i % 2 == 0) {
      doomed.push_back(keep);
    }
  }
  EXPECT_EQ(q.pendingCount(), 600u);
  for (const EventId id : doomed) ASSERT_TRUE(q.cancel(id));
  EXPECT_EQ(q.pendingCount(), 300u);
  EXPECT_EQ(q.laneSize(), 200u);
  for (std::uint32_t t = 1; t <= 3; ++t) {
    for (std::uint32_t i = 0; i < 200; ++i) {
      if (1 + (i % 3) != t) continue;
      expected.push_back(i);
      if (i % 2 == 1) expected.push_back(1000 + i);
    }
  }
  drain(q);
  EXPECT_EQ(log, expected);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.laneSize(), 0u);
}

TEST(EventQueueLaneTest, NextTimePendingCountAndFiredOfCountTheLane) {
  EventQueue q;
  std::vector<std::uint64_t> log;
  LogSink sink(log);
  q.scheduleCursor(4.0, &sink, 7);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pendingCount(), 1u);
  EXPECT_EQ(q.nextTime(), 4.0);
  q.scheduleEvent(6.0, &sink, tagged(1));
  q.scheduleCursor(2.0, &sink, 8);
  EXPECT_EQ(q.pendingCount(), 3u);
  EXPECT_EQ(q.laneSize(), 2u);
  EXPECT_EQ(q.heapSize(), 1u);
  EXPECT_EQ(q.nextTime(), 2.0);
  TimeMs clock = 0.0;
  EXPECT_FALSE(q.fireNext(1.0, &clock));  // not yet due
  EXPECT_EQ(clock, 0.0);
  ASSERT_TRUE(q.fireNext(kAlways, &clock));
  EXPECT_EQ(clock, 2.0);
  EXPECT_EQ(q.lastFiredTime(), 2.0);
  EXPECT_EQ(q.nextTime(), 4.0);
  ASSERT_TRUE(q.fireNext(kAlways, &clock));
  EXPECT_EQ(q.nextTime(), 6.0);
  ASSERT_TRUE(q.fireNext(kAlways, &clock));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(log, (std::vector<std::uint64_t>{8, 7, 1}));
  EXPECT_EQ(q.firedOf(EventKind::kFloodCursor), 2u);
  EXPECT_EQ(q.firedOf(EventKind::kTimer), 1u);
  EXPECT_EQ(q.firedOf(EventKind::kDeliver), 0u);
}

TEST(EventQueueLaneTest, RejectsFloodIdsPastTwentyBitsAndBadCursors) {
  EventQueue q;
  std::vector<std::uint64_t> log;
  LogSink sink(log);
  LogSink other(log);
  EXPECT_THROW(q.scheduleCursor(1.0, &sink, EventQueue::kMaxFloods),
               std::length_error);
  EXPECT_THROW(q.scheduleCursor(1.0, &sink, ~std::uint32_t{0}),
               std::length_error);
  EXPECT_THROW(q.scheduleCursor(1.0, nullptr, 0), std::invalid_argument);
  EXPECT_THROW(q.scheduleCursor(kAlways, &sink, 0), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  q.scheduleCursor(1.0, &sink, EventQueue::kMaxFloods - 1);
  // The lane has one sink: the network that owns the floods.
  EXPECT_THROW(q.scheduleCursor(1.0, &other, 0), std::invalid_argument);
  EXPECT_EQ(q.pendingCount(), 1u);
  drain(q);
  EXPECT_EQ(log, (std::vector<std::uint64_t>{EventQueue::kMaxFloods - 1}));
}

// ---- Handle safety --------------------------------------------------------

TEST(EventQueueHandleTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  TagSink sink;
  const EventId id = q.scheduleEvent(1.0, &sink, tagged(0));
  drain(q);
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueHandleTest, StaleHandleNeverCancelsSlotReuser) {
  // Fire an event, then keep rescheduling; the first handle's slot is
  // recycled with a bumped generation, so cancelling the stale handle must
  // never revoke the slot's newer tenants.
  EventQueue q;
  TagSink sink;
  const EventId stale = q.scheduleEvent(1.0, &sink, tagged(0));
  drain(q);
  for (int i = 0; i < 50; ++i) {
    const EventId fresh = q.scheduleEvent(1.0 + i, &sink, tagged(1));
    EXPECT_NE(fresh, stale);
    EXPECT_FALSE(q.cancel(stale));
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(drain(q).size(), 1u);
  }
  EXPECT_EQ(sink.tags.size(), 51u);
}

TEST(EventQueueHandleTest, CancelledSlotReusedWithoutCrossCancel) {
  EventQueue q;
  TagSink sink;
  const EventId a = q.scheduleEvent(1.0, &sink, tagged(0));
  EXPECT_TRUE(q.cancel(a));
  q.scheduleEvent(2.0, &sink, tagged(1));  // reuses a's slot
  EXPECT_FALSE(q.cancel(a));               // stale generation
  drain(q);
  EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{1}));
}

// ---- Dead-entry compaction ------------------------------------------------

TEST(EventQueueCompactionTest, HeapStaysBoundedUnderScheduleCancelChurn) {
  // The protocols' timer pattern: schedule a timeout, cancel it when the
  // repair lands, repeat.  100k rounds against a small live set must keep
  // the heap index bounded (compaction rebuilds once dead entries outnumber
  // live 2:1) instead of growing by one dead entry per round.
  EventQueue q;
  TagSink sink;
  constexpr std::size_t kLive = 32;
  double t = 1.0;
  for (std::size_t i = 0; i < kLive; ++i) {
    q.scheduleEvent(t, &sink, tagged(0));
    t += 1.0;
  }
  std::size_t max_heap = 0;
  for (int round = 0; round < 100000; ++round) {
    const EventId id = q.scheduleEvent(t, &sink, tagged(0));
    t += 1.0;
    ASSERT_TRUE(q.cancel(id));
    max_heap = std::max(max_heap, q.heapSize());
  }
  EXPECT_EQ(q.pendingCount(), kLive);
  // Bound: live + 2x live dead before a rebuild triggers, plus the
  // compaction floor below which tiny heaps are left alone.
  const std::size_t bound = 3 * kLive + 64 + 1;
  EXPECT_LE(max_heap, bound);
  EXPECT_LE(q.heapSize(), bound);
  // The live set is intact and still fires in order.
  const std::vector<TimeMs> times = drain(q);
  EXPECT_EQ(times.size(), kLive);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(EventQueueCompactionTest, CompactionWithZeroSurvivorsLeavesEmptyHeap) {
  // Regression: when every heap entry is dead at compaction time, the rebuild
  // must handle the zero-survivor case — the Floyd loop used to siftDown(0)
  // into an empty vector.  Scheduling exactly the compaction-floor count (64)
  // and cancelling all of it makes the first compaction run with live == 0.
  EventQueue q;
  TagSink sink;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.scheduleEvent(1.0 + i, &sink, tagged(0)));
  }
  for (const EventId id : ids) {
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heapSize(), 0u);
  // The queue stays usable after the empty rebuild.
  q.scheduleEvent(5.0, &sink, tagged(9));
  EXPECT_EQ(q.pendingCount(), 1u);
  EXPECT_EQ(drain(q), (std::vector<TimeMs>{5.0}));
  EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{9}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueCompactionTest, SlotSlabReusedUnderChurn) {
  // Cancel-heavy churn must also recycle payload slots: pendingCount stays
  // exact and every handle from a recycled slot still cancels correctly.
  EventQueue q;
  TagSink sink;
  for (int round = 0; round < 1000; ++round) {
    const EventId a = q.scheduleEvent(1.0, &sink, tagged(0));
    const EventId b = q.scheduleEvent(2.0, &sink, tagged(0));
    EXPECT_TRUE(q.cancel(b));
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.pendingCount(), 0u);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace rmrn::sim
