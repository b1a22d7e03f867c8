// The Aggregation Algorithm (Theorem 2.3 / Appendix B.2).
//
// Input: aggregation groups A_1..A_N with targets t_i; every member u of A_i
// holds an input value s_{u,i}. Output: t_i learns f({s_{u,i} : u in A_i}).
//
// Three phases; an Aggregate-and-Broadcast barrier closes a phase only when
// no node knows its last round (the rule in aggregate_broadcast.hpp):
//   1. Preprocessing — members send their packets in batches of ceil(log n)
//      per round to uniformly random level-0 butterfly nodes. With a known
//      bound l1_hat on the items per node it lasts max(1, ceil(l1_hat/log n))
//      rounds and needs no barrier; without one it lasts ceil(max_k/log n)
//      rounds, max_k a global maximum, and a barrier closes it.
//   2. Combining — combining random-rank routing down the butterfly to the
//      intermediate targets h(i) (route_down), ended by tokens and closed by
//      a barrier.
//   3. Postprocessing — the level-d hosts deliver each group's aggregate to
//      its target in a round chosen uniformly from {1..ceil(l2_hat/log n)},
//      a length every node knows: no barrier.
//
// Expected cost: O(L/n + (l1 + l2_hat)/log n + log n) rounds, w.h.p.
#pragma once

#include <functional>
#include <vector>

#include "overlay/router.hpp"
#include "net/network.hpp"
#include "primitives/context.hpp"

namespace ncc {

struct AggregationItem {
  NodeId member;   // u in A_i
  uint64_t group;  // i (any unique 64-bit id)
  Val value;       // s_{u,i}
};

struct AggregationProblem {
  std::vector<AggregationItem> items;
  /// t_i: the target node of group i; must be computable by every node from
  /// the group id alone (in the paper members know the target of each group).
  std::function<NodeId(uint64_t)> target;
  CombineFn combine;
  /// Upper bound l1_hat on the number of items any single node holds, known
  /// to every node; 0 means no bound is known (the preprocessing then ends
  /// with a barrier).
  uint32_t ell1_hat = 0;
  /// Upper bound l2_hat on the number of groups any single node is target of.
  uint32_t ell2_hat = 1;
};

struct AggregationResult {
  /// group -> aggregate, as received by target(group). FlatMap: consumers
  /// look groups up or scatter into per-group slots; none depend on order.
  FlatMap<Val> at_target;
  uint64_t rounds = 0;      // total NCC rounds (all phases + barriers)
  RouteStats route;         // combining-phase internals
};

/// `cache`, if non-null, enables en-route absorbers in the Combining Phase
/// (overlay/cache.hpp): repeat packets of a hot group park at the first state
/// that already forwarded the group and re-enter the descent combined.
AggregationResult run_aggregation(const Shared& shared, Network& net,
                                  const AggregationProblem& problem,
                                  uint64_t rng_tag = 0,
                                  CombiningCache* cache = nullptr);

}  // namespace ncc
