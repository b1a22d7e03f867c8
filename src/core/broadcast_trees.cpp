#include "core/broadcast_trees.hpp"

#include "obs/tracer.hpp"

namespace ncc {

BroadcastTrees build_broadcast_trees(const Shared& shared, Network& net, const Graph& g,
                                     const Orientation& orientation, uint64_t rng_tag) {
  // Under faults orientation can end with edges neither endpoint claimed
  // (a corrupted or lost identification answer hides a neighbor). Such an
  // edge joins no tree, so its endpoints never exchange over it, and the
  // algorithm's own verifier reports the damage.
  NCC_ASSERT_MSG(orientation.complete() || net.losses_possible(),
                 "broadcast trees need a full orientation");
  obs::Span span(net, "setup.broadcast_trees");
  std::vector<MulticastMembership> memberships;
  memberships.reserve(2 * g.m());
  for (NodeId u = 0; u < g.n(); ++u) {
    for (NodeId v : orientation.out_neighbors(u)) {
      // u joins A_{id(v)} and injects v's membership in A_{id(u)} on v's
      // behalf: both packets are injected by u (outdegree = O(a) injections).
      memberships.push_back({u, v, MulticastMembership::kSelf});
      memberships.push_back({v, u, /*injector=*/u});
    }
  }
  auto setup = setup_multicast_trees(shared, net, memberships, /*ell1_hat=*/0, rng_tag);
  return BroadcastTrees{std::move(setup.trees), setup.rounds, setup.trees.congestion};
}

MultiAggregationResult neighborhood_exchange(const Shared& shared, Network& net,
                                             const BroadcastTrees& bt,
                                             const std::vector<NodeId>& senders,
                                             const std::vector<Val>& payload_by_node,
                                             const CombineFn& combine, uint64_t rng_tag,
                                             const LeafAnnotateFn& annotate) {
  obs::Span span(net, "neighborhood_exchange");
  std::vector<MulticastSend> sends;
  sends.reserve(senders.size());
  for (NodeId u : senders) sends.push_back({u, u, payload_by_node[u]});
  return run_multi_aggregation(shared, net, bt.trees, sends, combine, rng_tag, annotate);
}

}  // namespace ncc
