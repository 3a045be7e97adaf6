// Open-addressing hash table for 64-bit keys, built for the protocols'
// per-(node, seq) state: keys of the form (node << 32) | seq.
//
// Slots are one flat array of {key, value}, a power of two long and at most
// three quarters full; a free slot holds kEmptyKey (which no stored key may
// equal) and a default value.  Lookups probe linearly from the key's home
// slot, and erase shifts the rest of the probe chain back instead of
// leaving tombstones, so a chain never outgrows its live entries.  A lookup
// that hits touches one cache line in the common case, where
// std::unordered_map chases a bucket and a node.
//
// The home slot comes from the top bits of (key ^ key >> 32) times a 64-bit
// odd constant (Fibonacci hashing), so both halves of the key move it: keys
// that differ only in the node half, or only in the seq half, spread over
// the table alike.  A hash that reads only part of the key collides every
// node on the same seq.
//
// Iteration (begin/end, eraseIf) walks slot order, which depends on the hash
// and the insertion history: it is deterministic, but outside the
// simulation's determinism contract, and rmrn-lint's DET-2 rule treats the
// table as an unordered container.  Any insert may move every value, and an
// erase may move the values after it: a value pointer or reference lives
// only until the next insert or erase.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace rmrn::util {

template <typename Value>
class FlatTable {
 public:
  using Key = std::uint64_t;
  /// Marks a free slot; the one key the table cannot store.
  static constexpr Key kEmptyKey = ~Key{0};

  /// What iteration yields: a key and a reference to its value.
  template <typename V>
  struct Entry {
    Key first;
    V& second;
  };

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The value stored under `key`, or null.
  [[nodiscard]] Value* find(Key key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] const Value* find(Key key) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      const Slot& slot = slots_[i];
      if (slot.key == kEmptyKey) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }
  [[nodiscard]] bool contains(Key key) const { return find(key) != nullptr; }

  /// The value under `key`; throws std::out_of_range when there is none.
  [[nodiscard]] Value& at(Key key) {
    return const_cast<Value&>(std::as_const(*this).at(key));
  }
  [[nodiscard]] const Value& at(Key key) const {
    const Value* value = find(key);
    if (value == nullptr) throw std::out_of_range("FlatTable::at: no key");
    return *value;
  }

  /// Stores a default value under `key` unless one is stored; returns the
  /// value and whether it was inserted.
  std::pair<Value*, bool> tryEmplace(Key key) {
    RMRN_REQUIRE(key != kEmptyKey, "FlatTable: the empty key is not storable");
    if (slots_.empty()) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != kEmptyKey; i = next(i)) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      grow();
      i = freeSlotFor(key);
    }
    slots_[i].key = key;
    ++size_;
    return {&slots_[i].value, true};
  }
  /// Inserts `key` (with a default value); false when it was stored already.
  bool insert(Key key) { return tryEmplace(key).second; }
  Value& operator[](Key key) { return *tryEmplace(key).first; }

  /// Erases `key`; false when it was not stored.
  bool erase(Key key) {
    if (size_ == 0) return false;
    for (std::size_t i = home(key);; i = next(i)) {
      if (slots_[i].key == kEmptyKey) return false;
      if (slots_[i].key == key) {
        eraseAt(i);
        return true;
      }
    }
  }

  /// Erases every entry for which `pred(key, value&)` holds, visiting each
  /// entry once, in slot order; returns how many were erased.
  template <typename Pred>
  std::size_t eraseIf(Pred pred) {
    if (size_ == 0) return 0;
    // Start at a free slot (the table is never full): no probe
    // chain runs across it, so a backward shift never carries an entry
    // over the start, and each shift moves an unvisited entry into the
    // slot being visited.
    std::size_t i = 0;
    while (slots_[i].key != kEmptyKey) ++i;
    std::size_t erased = 0;
    for (std::size_t left = slots_.size() - 1; left > 0; --left) {
      i = next(i);
      while (slots_[i].key != kEmptyKey &&
             pred(slots_[i].key, slots_[i].value)) {
        eraseAt(i);
        ++erased;
      }
    }
    return erased;
  }

  /// The longest distance of an entry from its home slot (a hash-quality
  /// diagnostic; a cold scan).
  [[nodiscard]] std::size_t longestProbe() const {
    std::size_t longest = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].key == kEmptyKey) continue;
      longest = std::max(longest, (i - home(slots_[i].key)) & mask_);
    }
    return longest;
  }

  template <typename S, typename V>
  class Iterator {
   public:
    Iterator(S* slot, S* end) : slot_(slot), end_(end) { skipFree(); }
    Entry<V> operator*() const { return {slot_->key, slot_->value}; }
    Iterator& operator++() {
      ++slot_;
      skipFree();
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return slot_ == other.slot_;
    }

   private:
    void skipFree() {
      while (slot_ != end_ && slot_->key == kEmptyKey) ++slot_;
    }
    S* slot_;
    S* end_;
  };

 private:
  struct Slot {
    Key key = kEmptyKey;
    [[no_unique_address]] Value value{};
  };

 public:
  using iterator = Iterator<Slot, Value>;
  using const_iterator = Iterator<const Slot, const Value>;
  iterator begin() { return {slots_.data(), slots_.data() + slots_.size()}; }
  iterator end() {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }
  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ull;

  [[nodiscard]] std::size_t home(Key key) const {
    return static_cast<std::size_t>(((key ^ (key >> 32)) * kFibonacci) >>
                                    shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & mask_;
  }
  /// The free slot a probe for the absent `key` ends at.
  [[nodiscard]] std::size_t freeSlotFor(Key key) const {
    std::size_t i = home(key);
    while (slots_[i].key != kEmptyKey) i = next(i);
    return i;
  }
  /// Frees slot `i`, shifting back each later entry of its probe chain that
  /// may sit closer to its home.
  void eraseAt(std::size_t i) {
    for (std::size_t j = next(i); slots_[j].key != kEmptyKey; j = next(j)) {
      // The entry at j may move to i unless its home lies in (i, j].
      if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
  }
  /// Doubles the slot array (or makes the first) and re-homes every entry.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t count = old.empty() ? kMinSlots : 2 * old.size();
    slots_ = std::vector<Slot>(count);
    mask_ = count - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(count));
    for (Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      slots_[freeSlotFor(slot.key)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

/// FlatTable as a set of keys.
struct NoValue {};
using FlatSet = FlatTable<NoValue>;

}  // namespace rmrn::util
