// Flat open-addressing hash map from uint64_t keys, the repository's
// deterministic-path replacement for std::unordered_map.
//
// Users are call- or run-wide tables keyed by group or node id: the overlay
// router's group metadata and rank caches, its root values and root columns,
// the primitives' per-call group tables, the network's per-shard drop
// generators, and sets and counters in the algorithms. The router's
// per-routing-state tables are not FlatMaps: a state holds few groups (at
// most the congestion), so its queue and its multicast-tree children are
// short vectors scanned linearly (see overlay/router.hpp).
//
// std::unordered_map pays a heap node per entry and chases a pointer per
// probe; this map stores the entries inline in one slot array: linear
// probing over power-of-two capacities, backward-shift deletion (no
// tombstones, so probe chains never rot), and an empty map owns no memory.
//
// Determinism note: iteration order differs from std::unordered_map (slot
// order, which depends on insertion history). Callers either drain in slot
// order after a sequential fill (a pure function of the insertion history,
// so thread-count invariant) or use the map order-insensitively; the
// catalog byte-identity checks pin this down.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace ncc {

template <typename V>
class FlatMap {
 public:
  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(full_.begin(), full_.end(), uint8_t{0});
    size_ = 0;
  }

  /// Heap bytes the map holds (its slot and occupancy arrays).
  size_t capacity_bytes() const { return slots_.capacity() * sizeof(Slot) + full_.capacity(); }

  /// Pointer to the mapped value, or nullptr.
  V* find(uint64_t key) {
    size_t i = find_slot(key);
    return i == kNone ? nullptr : &slots_[i].val;
  }
  const V* find(uint64_t key) const {
    size_t i = find_slot(key);
    return i == kNone ? nullptr : &slots_[i].val;
  }

  size_t count(uint64_t key) const { return find_slot(key) == kNone ? 0 : 1; }

  /// Mapped value of a key that must be present (unordered_map::at shape,
  /// minus the exception: absence is a caller bug, not a recoverable state).
  const V& at(uint64_t key) const {
    size_t i = find_slot(key);
    NCC_ASSERT_MSG(i != kNone, "FlatMap::at: key not present");
    return slots_[i].val;
  }

  /// Insert (key, val) if absent. Returns the mapped value (existing or
  /// fresh) and whether the insertion happened — unordered_map::emplace shape.
  std::pair<V*, bool> emplace(uint64_t key, const V& val) {
    grow_if_needed();
    size_t i = home(key);
    for (;; i = next(i)) {
      if (!full_[i]) {
        slots_[i].key = key;
        slots_[i].val = val;
        full_[i] = 1;
        ++size_;
        return {&slots_[i].val, true};
      }
      if (slots_[i].key == key) return {&slots_[i].val, false};
    }
  }

  V& operator[](uint64_t key) { return *emplace(key, V{}).first; }

  /// Backward-shift deletion: the probe chain behind the vacated slot is
  /// compacted, so lookups never need tombstones.
  bool erase(uint64_t key) {
    size_t i = find_slot(key);
    if (i == kNone) return false;
    size_t hole = i;
    for (size_t j = next(hole);; j = next(j)) {
      if (!full_[j]) break;
      // Slot j may fill the hole iff its probe path from home passes through
      // the hole (cyclic distance home->j spans the hole).
      size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    full_[hole] = 0;
    --size_;
    return true;
  }

  /// Visit every entry as fn(key, V&). Slot order — stable for a fixed
  /// insertion/erasure history, but not sorted; callers must be
  /// order-insensitive (the router's reductions are).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (size_t i = 0; i < slots_.size(); ++i)
      if (full_[i]) fn(slots_[i].key, slots_[i].val);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i)
      if (full_[i]) fn(slots_[i].key, const_cast<const V&>(slots_[i].val));
  }

 private:
  struct Slot {
    uint64_t key;
    V val;
  };
  static constexpr size_t kNone = SIZE_MAX;
  static constexpr size_t kInitialCap = 8;

  size_t home(uint64_t key) const { return static_cast<size_t>(mix64(key)) & mask_; }
  size_t next(size_t i) const { return (i + 1) & mask_; }

  size_t find_slot(uint64_t key) const {
    if (slots_.empty()) return kNone;
    for (size_t i = home(key);; i = next(i)) {
      if (!full_[i]) return kNone;
      if (slots_[i].key == key) return i;
    }
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      slots_.resize(kInitialCap);
      full_.assign(kInitialCap, 0);
      mask_ = kInitialCap - 1;
      return;
    }
    if (size_ * 4 < slots_.size() * 3) return;  // keep load factor < 3/4
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_full = std::move(full_);
    // Slot() (not Slot{}): value-init stays valid for V types whose default
    // constructor is explicit (copy-list-init from {} would be rejected).
    slots_.assign(old_slots.size() * 2, Slot());
    full_.assign(old_full.size() * 2, 0);
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (size_t i = 0; i < old_slots.size(); ++i)
      if (old_full[i]) emplace(old_slots[i].key, old_slots[i].val);
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> full_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace ncc
