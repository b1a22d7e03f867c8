// The Multi-Aggregation Algorithm (Theorem 2.6 / Appendix B.5).
//
// Every source s_i multicasts its packet p_i up its tree; at the leaves each
// (group i, member u) pair is remapped to a packet (id(u), p_i); the remapped
// packets are randomly redistributed over the level-0 butterfly nodes and
// aggregated down to h(id(u)), and each node u finally receives
// f({p_i : u in A_i}). Cost O(C + log n) rounds, w.h.p., where C is the
// congestion of the multicast trees.
//
// This is the workhorse of Section 5: with broadcast trees (A_{id(u)} = N(u))
// it lets every node simultaneously send a value to its neighbors and
// aggregate its neighbors' values (Corollary 1).
#pragma once

#include <optional>
#include <vector>

#include "overlay/router.hpp"
#include "net/network.hpp"
#include "primitives/context.hpp"
#include "primitives/multicast.hpp"

namespace ncc {

struct MultiAggregationResult {
  /// Per real node u: f({p_i : u in A_i}), or nullopt if u is in no group
  /// that multicast a packet.
  std::vector<std::optional<Val>> at_node;
  uint64_t rounds = 0;
  RouteStats up_route;
  RouteStats down_route;
};

/// `annotate`, if provided, replaces the leaf remapping value: the packet
/// generated at leaf l(i, u) carries annotate(group, member, payload) instead
/// of the raw payload. The Israeli–Itai matching step uses this hook to tag
/// packets with leaf-local random priorities (Section 5.3).
///
/// `annotate` models leaf-local computation, so it must be a pure function of
/// its arguments (derive randomness from (group, member) via mix64, as
/// matching does) — it may not draw from a shared Rng or mutate captured
/// state.
using LeafAnnotateFn = std::function<Val(uint64_t group, NodeId member, const Val&)>;

/// A node may source any number of groups: the source-to-root handoff is
/// batched ceil(log n) per round (the extension remarked after Theorem 2.6),
/// and the paper's single-source variant, at most one send per node, takes
/// one handoff round.
///
/// `cache`, if non-null, applies the en-route combining cache
/// (overlay/cache.hpp) to both routed phases: the Spreading Phase admits
/// payloads and serves recorded cache roots, the final Combining Phase runs
/// with absorbers.
MultiAggregationResult run_multi_aggregation(const Shared& shared, Network& net,
                                             const MulticastTrees& trees,
                                             const std::vector<MulticastSend>& sends,
                                             const CombineFn& combine,
                                             uint64_t rng_tag = 0,
                                             const LeafAnnotateFn& annotate = nullptr,
                                             CombiningCache* cache = nullptr);

}  // namespace ncc
