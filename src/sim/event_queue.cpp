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
  if (dead_in_heap_ < kCompactMinDead || dead_in_heap_ <= 2 * live_) return;
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
  return heap_[0].when();
}

}  // namespace rmrn::sim
