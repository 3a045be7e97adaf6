// Flat 4-ary min-heap primitives over (order, key) entries, shared by the
// EventQueue's ordering index, SimNetwork's flood frontiers and Routing's
// Dijkstra kernel.
//
// An entry is any struct with two std::uint64_t members, `order` and `key`,
// ordered as the one unsigned 128-bit integer (order, key).  That compare
// compiles without branches, and the child scan in siftDown selects with
// arithmetic instead of a jump: heap comparisons are data-dependent coin
// flips, and a conditional jump there mispredicts about half the time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace rmrn::util::quad_heap {

template <typename Entry>
[[nodiscard]] inline bool before(const Entry& a, const Entry& b) {
  __extension__ using Wide = unsigned __int128;  // GCC/Clang builtin
  return ((Wide{a.order} << 64) | a.key) < ((Wide{b.order} << 64) | b.key);
}

/// Moves heap[i] up to its place.
template <typename Entry>
inline void siftUp(Entry* heap, std::size_t i) {
  const Entry entry = heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(entry, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = entry;
}

/// Moves heap[i] down to its place in the n-entry heap.
template <typename Entry>
inline void siftDown(Entry* heap, std::size_t n, std::size_t i) {
  const Entry entry = heap[i];
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      const std::size_t earlier = before(heap[c], heap[best]);
      best += (c - best) & (0 - earlier);
    }
    if (!before(heap[best], entry)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = entry;
}

/// Removes the minimum of a non-empty heap.
template <typename Entry>
inline void popRoot(std::vector<Entry>& heap) {
  heap.front() = heap.back();
  heap.pop_back();
  if (!heap.empty()) siftDown(heap.data(), heap.size(), 0);
}

}  // namespace rmrn::util::quad_heap
