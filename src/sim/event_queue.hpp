// Cancellable discrete-event queue of slab-backed typed events, plus a
// cursor lane for tree floods.
//
// Events are (time, insertion-sequence) ordered; ties in time resolve in
// insertion order so runs are fully deterministic.  Storage is a slab of
// POD-sized slots recycled through a free list; handles carry a generation
// counter so cancel() is O(1), can never revoke a slot's later tenant, and
// frees the payload immediately (no dead-entry accumulation — the protocols'
// cancel-heavy timer pattern reuses a bounded working set of slots).  The
// ordering index is a flat 4-ary heap of 16-byte keys; entries whose slot was
// cancelled are skipped lazily on pop and compacted away wholesale when they
// outnumber the heap's live entries 2:1, so the heap footprint stays
// proportional to its live event count.
//
// Events (sim/event.hpp) are stored inline — scheduling one performs no
// heap allocation at steady state — and fire through their EventSink.
//
// Flood cursors (scheduleCursor) take a lane of their own.  A cursor is never
// cancelled and its whole payload is a flood id, so it needs no slab slot: it
// is one key in a second 4-ary heap, {time, (seq << 20) | flood}, its seq
// drawn from the one insertion counter.  The lane keeps the cursors (nine in
// ten events of a flood-heavy run) out of the timer heap, which under SRM is
// mostly dead repair timers; fireNext() and nextTime() merge the two heap
// tops with the same 128-bit compare, so the (time, seq) order is exactly
// that of one heap.  A queue has one cursor sink (the network that owns the
// floods), and flood ids stay below 2^20 (kMaxFloods; SimNetwork bounds its
// flood arena there).
//
// An event may also be scheduled as decided at an earlier time, its stamp
// (scheduleDecidedEvent): among events due at the same time it fires after
// those scheduled before the stamp and before those scheduled after it, as
// if it had been scheduled at the stamp.  A sharded network schedules a
// handed-over send this way, with the time its sender decided it, so ties
// resolve as in the serial run (DESIGN.md §14).  Stamped events wait in a
// third, small heap ordered by (time, stamp, seq); an ordinary event's
// stamp is the time it was scheduled, which its seq already orders, so the
// main heap and the lane keep their two-word keys and a run with no stamped
// event never compares a stamp.  A slot keeps its tenant's stamp and a
// side array indexed by flood id keeps each cursor's, so a stamped event
// ties against either exactly as against one heap.
//
// Heap keys are 16 bytes: the event time's order-preserving integer image
// plus a single word packing (insertion seq << 20) | slot (a flood id on the
// lane).  Packing makes the whole (time, seq) order one branch-free 128-bit
// compare and fits two keys per cache line, which matters because sift
// traffic dominates the engine's cost.  The packed widths bound the queue
// at 2^20 simultaneously-pending slab events, 2^20 flood ids and 2^44 total
// scheduled events per queue — all enforced, all far past anything a
// simulation here reaches.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/event.hpp"
#include "util/check.hpp"
#include "util/quad_heap.hpp"

namespace rmrn::sim {

class EventQueue {
 public:
  /// Flood ids a cursor may carry: [0, kMaxFloods).
  static constexpr std::uint32_t kMaxFloods = 1u << 20;

  /// Schedules `record` for dispatch to `sink->onEvent()` at absolute time
  /// `at`.  Returns a handle usable with cancel().  Allocation-free once the
  /// slab and heap have warmed up.  Throws std::invalid_argument for a null
  /// sink or a non-finite time.
  EventId scheduleEvent(TimeMs at, EventSink* sink, const EventRecord& record);
  /// Schedules `record` at `at` as decided at `stamp` (<= at): see above.
  /// Such an event cannot be cancelled.
  void scheduleDecidedEvent(TimeMs at, TimeMs stamp, EventSink* sink,
                            const EventRecord& record);

  /// Schedules flood `flood`'s cursor on the cursor lane: an event of kind
  /// kFloodCursor for `sink` at `at`, counted and ordered like any other but
  /// never cancelled and never stored in the slab.  Every cursor of a queue
  /// goes to one sink, and a flood has at most one cursor pending (its
  /// stamp is kept by flood id).  Allocation-free once the lane has warmed
  /// up.
  /// Throws std::length_error for a flood id of kMaxFloods or more and
  /// std::invalid_argument for a null or second sink or a non-finite time.
  void scheduleCursor(TimeMs at, EventSink* sink, std::uint32_t flood);

  /// Cancels a pending event.  Returns true if the event was pending (not
  /// yet fired and not already cancelled).  A stale handle — one whose slot
  /// has been recycled for a newer event — never cancels that newer event.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Time of the next live event.  Requires !empty().
  [[nodiscard]] TimeMs nextTime() const;

  /// Fires the next live event if there is one and it is due at or before
  /// `until`: stores its time in *clock (before running the handler, so
  /// handlers observe the advanced clock) and returns true.  Returns false —
  /// leaving *clock untouched — when the queue is empty or the next event is
  /// later than `until`.  The hot path for Simulator::run(): one dead-entry
  /// sweep and one root read serve the bound check, clock advance, and fire.
  bool fireNext(TimeMs until, TimeMs* clock);

  /// Events fired over the queue's lifetime with the given kind.
  [[nodiscard]] std::uint64_t firedOf(EventKind kind) const {
    return fired_by_kind_[static_cast<std::size_t>(kind)];
  }

  /// Live (scheduled, not cancelled, not fired) event count.
  [[nodiscard]] std::size_t pendingCount() const { return live_; }

  /// Heap index entries, including lazily-skipped cancelled ones.  Bounded
  /// at ~3x pendingCount() by compaction; exposed so tests can assert that.
  /// The cursor lane is not counted.
  [[nodiscard]] std::size_t heapSize() const { return heap_.size(); }

  /// Flood cursors pending on the cursor lane.
  [[nodiscard]] std::size_t laneSize() const { return lane_.size(); }

  /// Time of the most recently fired event; -infinity before the first
  /// fire.  Simulation time never runs backwards: fireNext() enforces
  /// fired time >= lastFiredTime(), and scheduleEvent() rejects events in
  /// the past (both via the RMRN contract layer).
  [[nodiscard]] TimeMs lastFiredTime() const { return last_fired_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Compaction floor: below this many dead entries the heap is left alone
  /// (rebuilding tiny heaps buys nothing).
  static constexpr std::size_t kCompactMinDead = 64;
  /// Packed-key widths: low 20 bits slot (or flood id), high 44 bits
  /// insertion seq.
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kMaxSlots - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  /// Tenant seq of a free slot; never equals a real (bounded) seq.
  static constexpr std::uint64_t kNoSeq = ~0ull;
  /// A flood's stamp while it has no cursor pending (checked builds only):
  /// the timeOrder() of no time but a NaN.
  static constexpr std::uint64_t kNoCursor = 0;

  struct Slot {
    std::uint64_t seq = kNoSeq;  // current tenant's insertion seq
    std::uint32_t gen = 1;       // bumped on free; 0 is never a live gen
    std::uint32_t next_free = kNil;
    EventKind kind = EventKind::kTimer;
    EventSink* sink = nullptr;
    TimeMs stamp = 0.0;  // the time the tenant counts as decided at
    EventData data;
  };
  /// 4-ary heap key: (time, seq) with seq the global insertion sequence.
  /// Seqs never repeat, so key order is seq order.  On the lane the low
  /// bits name a flood instead of a slot.
  /// The time is stored as its order-preserving integer image, so ordering
  /// two entries is one branch-free 128-bit comparison (util/quad_heap.hpp).
  struct HeapEntry {
    std::uint64_t order;  // timeOrder(time)
    std::uint64_t key;    // (seq << kSlotBits) | slot

    [[nodiscard]] TimeMs when() const { return timeOfOrder(order); }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & kSlotMask);
    }
    [[nodiscard]] std::uint64_t seq() const { return key >> kSlotBits; }
  };
  /// A stamped event's entry: (time, stamp, seq) ordered.
  struct StampedEntry {
    std::uint64_t order;  // timeOrder(time)
    std::uint64_t stamp;  // timeOrder(stamp)
    std::uint64_t key;    // (seq << kSlotBits) | slot
  };
  [[nodiscard]] static EventId makeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  // The slab and heap primitives live in the header so the schedule/fire hot
  // path inlines into callers; per-event call overhead is measurable at the
  // engine's event rates.

  [[nodiscard]] std::uint32_t acquireSlot() {
    if (free_slots_ != kNil) {
      const std::uint32_t slot = free_slots_;
      free_slots_ = slots_[slot].next_free;
      slots_[slot].next_free = kNil;
      return slot;
    }
    return acquireSlotSlow();
  }
  [[nodiscard]] std::uint32_t acquireSlotSlow();
  void freeSlot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.sink = nullptr;
    s.seq = kNoSeq;  // marks the slot's heap entry dead
    ++s.gen;         // invalidates every outstanding handle to this slot
    s.next_free = free_slots_;
    free_slots_ = slot;
  }
  /// Checks that an event may be due at `at`; changes nothing.
  void checkAdmissible(TimeMs at) const {
    if (!std::isfinite(at)) {
      throw std::invalid_argument("EventQueue: non-finite event time");
    }
    RMRN_REQUIRE(at >= last_fired_,
                 "event scheduled in the simulated past (time monotonicity)");
    if (next_seq_ >= kMaxSeq) {
      throw std::length_error("EventQueue: insertion sequence exhausted");
    }
  }
  /// Counts an admitted event pending and returns its insertion seq.
  std::uint64_t takeSeq() {
    ++live_;
    return next_seq_++;
  }
  /// Admits an event due at `at` into a fresh slot and returns the slot,
  /// its seq set.
  std::uint32_t admitSlot(TimeMs at, EventSink* sink, TimeMs stamp,
                          const EventRecord& record) {
    checkAdmissible(at);
    const std::uint32_t slot = acquireSlot();
    Slot& s = slots_[slot];
    s.seq = takeSeq();
    s.kind = record.kind;
    s.sink = sink;
    s.stamp = stamp;
    s.data = record.data;
    return slot;
  }

  [[nodiscard]] bool entryDead(const HeapEntry& e) const {
    return slots_[e.slot()].seq != e.seq();
  }
  /// Drops cancelled entries off the heap top so the root is live.
  void skipDead() const {
    while (!heap_.empty() && entryDead(heap_[0])) {
      util::quad_heap::popRoot(heap_);
      --dead_in_heap_;
    }
  }
  /// Rebuilds the heap without dead entries once they outnumber its live
  /// ones 2:1.
  void maybeCompact();
  /// Whether the lane's top fires before the main heap's (dead entries
  /// skipped): (time, seq) order.
  [[nodiscard]] bool laneFirst() const {
    return !lane_.empty() &&
           (heap_.empty() || util::quad_heap::before(lane_[0], heap_[0]));
  }
  /// Whether the stamped heap's top (non-empty) fires before the earlier of
  /// the main heap's and the lane's (`lane_first`, from laneFirst()):
  /// (time, stamp, seq) order.
  [[nodiscard]] bool stampedFirst(bool lane_first) const;
  /// Fires the stamped heap's top if it is due at or before `until`.
  bool fireStamped(TimeMs until, TimeMs* clock);
  /// Fires the event in `slot` due at `time`, already off its heap.
  void fire(std::uint32_t slot, TimeMs time, TimeMs* clock);
  /// Advances the clock to `time`, the due time of the event being fired.
  void advance(TimeMs time, TimeMs* clock) {
    RMRN_ENSURE(time >= last_fired_,
                "event queue popped an event earlier than the previous one");
    last_fired_ = time;
    --live_;
    // The clock advances before the handler runs: handlers schedule
    // relative to the owning simulator's now().
    *clock = time;
  }
  /// Sets the lane's sink on its first cursor; rejects any other.
  void adoptCursorSink(EventSink* sink);

  std::vector<Slot> slots_;
  std::uint32_t free_slots_ = kNil;  // intrusive free list through next_free
  // The heap is an ordering index only; lazily dropping dead entries from
  // the top mutates no observable state, hence mutable for const queries.
  mutable std::vector<HeapEntry> heap_;
  std::vector<StampedEntry> stamped_;  // a binary heap, never cancelled
  // The cursor lane: a 4-ary heap of (time, (seq << 20) | flood) keys, and
  // by flood id the timeOrder() of the time its pending cursor was
  // scheduled at, its stamp (read only to tie against a stamped event;
  // checked builds reset it to kNoCursor when the cursor fires).
  std::vector<HeapEntry> lane_;
  std::vector<std::uint64_t> cursor_stamp_;
  EventSink* cursor_sink_ = nullptr;
  mutable std::size_t dead_in_heap_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::array<std::uint64_t, kNumEventKinds> fired_by_kind_{};
  TimeMs last_fired_ = -std::numeric_limits<TimeMs>::infinity();
};

// Inline hot path: scheduling and the pop-fire step.  These run once per
// simulated event, so keeping them visible to callers (for inlining) is
// worth the header weight; cold and rare paths stay in event_queue.cpp.

inline EventId EventQueue::scheduleEvent(TimeMs at, EventSink* sink,
                                         const EventRecord& record) {
  if (sink == nullptr) {
    throw std::invalid_argument("EventQueue: event needs a sink");
  }
  const std::uint32_t slot = admitSlot(at, sink, last_fired_, record);
  // rmrn-lint: allow(HOT-1) heap grows to the pending-event high-water mark, then reuses capacity (alloc_tests)
  heap_.push_back(
      HeapEntry{timeOrder(at), (slots_[slot].seq << kSlotBits) | slot});
  util::quad_heap::siftUp(heap_.data(), heap_.size() - 1);
  return makeId(slot, slots_[slot].gen);
}

inline void EventQueue::scheduleCursor(TimeMs at, EventSink* sink,
                                       std::uint32_t flood) {
  if (flood >= kMaxFloods) {
    throw std::length_error("EventQueue: flood id needs more than 20 bits");
  }
  if (sink != cursor_sink_ || sink == nullptr) adoptCursorSink(sink);
  checkAdmissible(at);
  if (flood >= cursor_stamp_.size()) {
    // rmrn-lint: allow(HOT-1) grows to the flood arena's high-water mark, then is reused (alloc_tests)
    cursor_stamp_.resize(flood + 1);
  }
  RMRN_REQUIRE(cursor_stamp_[flood] == kNoCursor,
               "EventQueue: a flood has at most one pending cursor");
  cursor_stamp_[flood] = timeOrder(last_fired_);
  // rmrn-lint: allow(HOT-1) the lane grows to its pending-cursor high-water mark, then reuses capacity (alloc_tests)
  lane_.push_back(HeapEntry{timeOrder(at), (takeSeq() << kSlotBits) | flood});
  util::quad_heap::siftUp(lane_.data(), lane_.size() - 1);
}

inline bool EventQueue::fireNext(TimeMs until, TimeMs* clock) {
  if (empty()) return false;
  skipDead();
  const bool lane_first = laneFirst();
  if (!stamped_.empty() && stampedFirst(lane_first)) {
    return fireStamped(until, clock);
  }
  if (lane_first) {
    const HeapEntry top = lane_[0];
    const TimeMs time = top.when();
    if (time > until) return false;
    util::quad_heap::popRoot(lane_);
#if RMRN_CHECKS_ENABLED
    cursor_stamp_[top.slot()] = kNoCursor;
#endif
    advance(time, clock);
    ++fired_by_kind_[static_cast<std::size_t>(EventKind::kFloodCursor)];
    EventRecord record{EventKind::kFloodCursor, {}};
    record.data.cursor = FloodCursorEvent{top.slot()};
    cursor_sink_->onEvent(record);
    return true;
  }
  const HeapEntry top = heap_[0];
  const TimeMs time = top.when();
  if (time > until) return false;
  util::quad_heap::popRoot(heap_);
  fire(top.slot(), time, clock);
  return true;
}

inline void EventQueue::fire(std::uint32_t slot, TimeMs time, TimeMs* clock) {
  advance(time, clock);
  Slot& s = slots_[slot];
  // Copy out before freeing: the handler may schedule, growing slots_.
  EventSink* const sink = s.sink;
  const EventRecord record{s.kind, s.data};
  freeSlot(slot);
  ++fired_by_kind_[static_cast<std::size_t>(record.kind)];
  sink->onEvent(record);
}

}  // namespace rmrn::sim
