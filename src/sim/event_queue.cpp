#include "sim/event_queue.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace rmrn::sim {

std::uint32_t EventQueue::acquireSlotSlow() {
  if (slots_.size() >= kMaxSlots) {
    throw std::length_error("EventQueue: more than 2^20 pending events");
  }
  // rmrn-lint: allow(HOT-1) slab warm-up: grows once per high-water mark, then slots recycle (alloc_tests)
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  freeSlot(slot);  // the heap entry goes stale and is skipped/compacted
  --live_;
  ++dead_in_heap_;
  maybeCompact();
  return true;
}

void EventQueue::maybeCompact() {
  // The lane and the stamped heap hold the rest of the live events.
  const std::size_t live_in_heap = live_ - lane_.size() - stamped_.size();
  if (dead_in_heap_ < kCompactMinDead || dead_in_heap_ <= 2 * live_in_heap) {
    return;
  }
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (!entryDead(entry)) heap_[kept++] = entry;
  }
  // rmrn-lint: allow(HOT-1) shrinking resize: kept <= size(), so capacity is retained, never reallocated
  heap_.resize(kept);
  dead_in_heap_ = 0;
  // Floyd heap construction over the surviving entries.  The start index
  // covers every parent and is zero on an empty heap (all entries dead),
  // so siftDown is never asked to read a nonexistent root.
  for (std::size_t i = (heap_.size() + 3) / 4; i-- > 0;) {
    util::quad_heap::siftDown(heap_.data(), heap_.size(), i);
  }
}

TimeMs EventQueue::nextTime() const {
  if (empty()) throw std::logic_error("EventQueue::nextTime on empty");
  skipDead();
  const bool lane_first = laneFirst();
  if (!stamped_.empty() && stampedFirst(lane_first)) {
    return timeOfOrder(stamped_.front().order);
  }
  return lane_first ? lane_[0].when() : heap_[0].when();
}

void EventQueue::adoptCursorSink(EventSink* sink) {
  if (sink == nullptr || cursor_sink_ != nullptr) {
    throw std::invalid_argument(
        "EventQueue: the cursor lane takes one non-null sink");
  }
  cursor_sink_ = sink;
}

void EventQueue::scheduleDecidedEvent(TimeMs at, TimeMs stamp,
                                      EventSink* sink,
                                      const EventRecord& record) {
  RMRN_REQUIRE(sink != nullptr && stamp <= at,
               "EventQueue: a decided event needs a sink and stamp <= time");
  const std::uint32_t slot = admitSlot(at, sink, stamp, record);
  // rmrn-lint: allow(HOT-1) the stamped heap grows to its high-water mark, then reuses capacity (alloc_tests)
  stamped_.push_back(StampedEntry{timeOrder(at), timeOrder(stamp),
                                  (slots_[slot].seq << kSlotBits) | slot});
  util::quad_heap::siftUp(stamped_.data(), stamped_.size() - 1);
}

bool EventQueue::stampedFirst(bool lane_first) const {
  // An ordinary event's stamp is the time it was scheduled: its slot's, or
  // for a cursor its flood's.
  if (lane_first) {
    const HeapEntry& top = lane_[0];
    return before(stamped_.front(),
                  StampedEntry{top.order, cursor_stamp_[top.slot()], top.key});
  }
  if (heap_.empty()) return true;
  const HeapEntry& top = heap_[0];
  return before(
      stamped_.front(),
      StampedEntry{top.order, timeOrder(slots_[top.slot()].stamp), top.key});
}

bool EventQueue::fireStamped(TimeMs until, TimeMs* clock) {
  const StampedEntry top = stamped_.front();
  const TimeMs time = timeOfOrder(top.order);
  if (time > until) return false;
  util::quad_heap::popRoot(stamped_);
  fire(static_cast<std::uint32_t>(top.key & kSlotMask), time, clock);
  return true;
}

}  // namespace rmrn::sim
