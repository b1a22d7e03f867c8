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
// A&B usable as the synchronization barrier the other primitives use between
// phases (the paper's token variant; the round cost is identical).
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

/// `inputs[u]` is node u's input value (nullopt = u not in A). On return every
/// node knows the aggregate (the simulator returns it once; per-node copies
/// would all be equal by construction).
AbResult aggregate_and_broadcast(const Overlay& topo, Network& net,
                                 const std::vector<std::optional<Val>>& inputs,
                                 const CombineFn& combine);

/// Barrier: an Aggregate-and-Broadcast with a constant input from every node,
/// used purely for its synchronization effect (Appendix B.1). Runs a fast
/// path — column-sized count/presence scratch instead of the n-sized
/// optional<Val> input vector and CombineFn plumbing — that produces the
/// same rounds and send/drop schedule as the general primitive under every
/// fault model (payload words a byzantine hook corrupted in flight are the
/// only possible divergence, and barrier receivers discard them unread).
///
/// `ws` is the barrier's scratch, sized on first use and reused by every
/// later barrier that passes it (each run's Shared owns one), so the
/// barrier's rounds allocate nothing.
struct BarrierWorkspace {
  std::vector<uint64_t> weight;  // subtree count held at each column
  std::vector<uint8_t> present;  // the column holds a value (see sync_barrier)
  std::vector<NodeId> parent;    // each column's tree parent at the last merge step
  // The broadcast schedule, a pure function of the aggregation tree: the
  // columns informed at broadcast step b, ascending, are
  // bcast_cols[bcast_off[b] .. bcast_off[b + 1]). Built once per overlay.
  std::vector<NodeId> bcast_cols;
  std::vector<uint32_t> bcast_off;
  OverlayKind kind = OverlayKind::kButterfly;  // the overlay the schedule is for
  NodeId n = 0;                                // (n = 0: none built yet)
};
uint64_t sync_barrier(const Overlay& topo, Network& net, BarrierWorkspace& ws);

}  // namespace ncc
