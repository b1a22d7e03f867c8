// En-route combining cache: bounded per-routing-state LRUs of hot-group
// traffic (the tentpole of the hot-key PR).
//
// Under skewed (Zipf-style) request streams a handful of groups carry most of
// the load, and every one of their requests walks the full overlay descent to
// the group's root. The cache lets routing states answer repeats locally:
//
//  * Payload entries (serving side). The multicast Spreading Phase admits the
//    payload it copies through each routing state. A later wave's tree-setup
//    request that deposits at a state holding its group's payload terminates
//    there — route_down records a cache root (overlay/router.hpp's
//    MulticastTrees::CacheRoot) and the next Spreading Phase injects the
//    cached payload at that state instead of descending from the group root.
//  * Absorber entries (combining side). During a pure aggregation descent a
//    state arms an absorber for each group it forwards; a later packet of the
//    same group arriving after the first departed parks in the absorber
//    (combined en route) instead of climbing separately, and every absorbed
//    value re-enters the pending queue exactly once when the state's
//    termination tokens complete — aggregates stay exact.
//
// Determinism: the router consults the cache only at its deposit/arrive/token
// merge points, in a fixed order (the same discipline as obs::FlowSampler),
// so hits, evictions, and the resulting message streams are a pure function
// of the seed. Recency is a logical tick incremented per cache operation,
// not wall time.
#pragma once

#include <cstdint>
#include <vector>

#include "overlay/router.hpp"

namespace ncc {

class CombiningCache {
 public:
  /// `states` = routing states of the overlay (Overlay::node_count());
  /// `capacity` = max entries per state (the spec's cache_size).
  CombiningCache(uint64_t states, uint32_t capacity);

  /// Cumulative counters; the router reports per-call deltas into RouteStats.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  const Stats& stats() const { return stats_; }
  uint32_t capacity() const { return capacity_; }

  /// Entries currently cached at `state` (tests: the LRU bound).
  uint32_t entries_at(uint64_t state) const;

  // --- payload (serving) side --------------------------------------------
  /// Cached payload of `group` at `state`, or nullptr; counts a hit (and
  /// refreshes recency) or a miss.
  const Val* lookup_payload(uint64_t state, uint64_t group);
  /// Insert or refresh the payload of `group` at `state`, evicting the
  /// least-recent entry when the state is full. Must not evict a valued
  /// absorber (asserted): payloads are admitted by the Spreading Phase,
  /// absorbers live only inside one combining descent.
  void admit_payload(uint64_t state, uint64_t group, const Val& v);

  // --- absorber (combining) side -----------------------------------------
  /// A valued absorber displaced by arming or flushing; its mass must
  /// re-enter the routing state's pending queue.
  struct Flushed {
    uint64_t group;
    Val val;
  };

  /// Combine `v` into the absorber armed for (state, group), if any. True =
  /// the packet parked here (a hit); false = no absorber armed (a miss).
  bool absorb(uint64_t state, uint64_t group, const Val& v, const CombineFn& combine);
  /// Arm an empty absorber for `group` at `state`. If arming evicts a valued
  /// absorber its mass is written to *evicted and true is returned.
  bool arm_absorber(uint64_t state, uint64_t group, Flushed* evicted);
  /// Remove every absorber at `state` (called at the state's token-completion
  /// transition), appending the valued ones to `out`.
  void flush_absorbers(uint64_t state, std::vector<Flushed>* out);

 private:
  struct Entry {
    uint64_t group = 0;
    Val val{};
    uint64_t tick = 0;       // logical recency
    bool is_absorber = false;
    bool has_val = false;    // absorbers arm empty; payloads always hold one
  };

  Entry* find(uint64_t state, uint64_t group, bool is_absorber);
  /// Slot for a fresh entry at `state`: an unused slot while below capacity,
  /// otherwise the least-recent entry (evicted; valued absorbers to *evicted).
  Entry* take_slot(uint64_t state, Flushed* evicted, bool* was_valued_absorber);

  std::vector<std::vector<Entry>> lru_;  // per state, lazily grown
  uint32_t capacity_;
  uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace ncc
