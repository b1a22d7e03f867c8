// Aggregate-and-Broadcast (Theorem 2.2 / Appendix B.1).
//
// Inputs held by a subset A of nodes are aggregated along the overlay's
// aggregation tree over the column ids to the root (column 0) and the result
// is broadcast back out to every node, all in O(log n) rounds. The tree is a
// property of the Overlay (agg_steps / agg_parent): the seed's clear-bit-i
// binary tree, bit-identical on the butterfly, hypercube and radix-4
// butterfly, while the augmented cube's suffix-complement tree aggregates in
// ceil((d+1)/2) steps — about half the rounds. The schedule is fixed at
// 2*agg_steps() + 2 rounds regardless of the inputs, which is what makes
// A&B usable as the synchronization barrier the other primitives use after
// phases of unknown length (the paper's token variant; the round cost is
// identical).
//
// Both functions below run the same A&B schedule (one runner); the barrier
// is the general primitive with the input {1, 0} at every node, summed.
#pragma once

#include <optional>
#include <vector>

#include "overlay/overlay.hpp"
#include "overlay/router.hpp"
#include "net/network.hpp"

namespace ncc {

struct AbResult {
  /// Aggregate of all inputs; nullopt when no node supplied an input.
  std::optional<Val> value;
  uint64_t rounds = 0;
};

/// A&B scratch, sized on first use and reused by every later call that
/// passes it (each run's Shared owns one), so the rounds of A&B and of the
/// barrier allocate nothing.
struct BarrierWorkspace {
  std::vector<Val> value;        // value held at each column
  std::vector<uint8_t> present;  // the column holds a value
  // The schedule, a pure function of the aggregation tree, built once per
  // overlay. Merge step i visits merge_cols[merge_off[i] .. merge_off[i + 1]),
  // ascending: the columns a value can occupy by then; parent[k] is the tree
  // parent of merge_cols[k] at that step. The columns informed at broadcast
  // step b, ascending, are bcast_cols[bcast_off[b] .. bcast_off[b + 1]).
  std::vector<NodeId> merge_cols;
  std::vector<NodeId> parent;
  std::vector<uint32_t> merge_off;
  std::vector<NodeId> bcast_cols;
  std::vector<uint32_t> bcast_off;
  OverlayKind kind = OverlayKind::kButterfly;  // the overlay the schedule is for
  NodeId n = 0;                                // (n = 0: none built yet)
};

/// `inputs[u]` is node u's input value (nullopt = u not in A). On return every
/// node knows the aggregate (the simulator returns it once; per-node copies
/// would all be equal by construction).
AbResult aggregate_and_broadcast(const Overlay& topo, Network& net, BarrierWorkspace& ws,
                                 const std::vector<std::optional<Val>>& inputs,
                                 const CombineFn& combine);

/// Barrier: an Aggregate-and-Broadcast with a constant input from every node,
/// used purely for its synchronization effect (Appendix B.1). Returns the
/// rounds it took.
///
/// The rule for callers: a barrier follows a phase only when no node knows
/// the phase's last round, because its length is a global maximum (the
/// batched injection's ceil(max_k / log n) rounds, orientation's contact
/// rounds) or a w.h.p. bound ended by tokens (route_down, route_up). A phase
/// whose length every node knows, such as the random deliveries over
/// ceil(l_hat / log n) rounds, a single round, or a span derived from an
/// A&B result, ends on that round with no barrier: in the synchronous model
/// every node starts the next phase in the same round anyway.
uint64_t sync_barrier(const Overlay& topo, Network& net, BarrierWorkspace& ws);

}  // namespace ncc
