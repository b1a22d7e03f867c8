#include "primitives/multi_aggregation.hpp"

#include "common/assert.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/exchange.hpp"

namespace ncc {

namespace {
constexpr uint32_t kTagToRoot = 0x0e00;
constexpr uint32_t kTagRedistribute = 0x0f00;
constexpr uint32_t kTagFinal = 0x1000;
}  // namespace

MultiAggregationResult run_multi_aggregation(const Shared& shared, Network& net,
                                             const MulticastTrees& trees,
                                             const std::vector<MulticastSend>& sends,
                                             const CombineFn& combine, uint64_t rng_tag,
                                             const LeafAnnotateFn& annotate,
                                             CombiningCache* cache) {
  const Overlay& topo = shared.topo();
  const NodeId n = topo.n();
  obs::Span span(net, "multi_aggregation");
  uint64_t start_rounds = net.rounds();

  MultiAggregationResult res;
  res.at_node.assign(n, std::nullopt);

  // Phase 1: sources -> tree roots.
  FlatMap<Val> payloads = hand_off_to_roots(topo, net, trees, sends, kTagToRoot);

  // Phase 2: multicast up the trees to the leaves.
  auto rank = [&](uint64_t g) { return shared.rank(g); };
  UpResult up =
      route_up(topo, net, shared.router_workspace(), trees, payloads, rank, cache);
  res.up_route = up.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  // Phase 3: remap (group, member) -> (member, p) at the leaves and
  // redistribute the packets randomly over the level-0 butterfly nodes,
  // batched ceil(log n) per round per host. A leaf host's packet count is a
  // tree property no node bounds in advance, so a barrier closes the phase.
  std::vector<std::pair<NodeId, AggPacket>> outgoing;  // (leaf column, packet)
  for_each_leaf_payload(trees, up.at_col, [&](NodeId c, uint64_t g, NodeId member, const Val& v) {
    outgoing.push_back({c, {member, annotate ? annotate(g, member, v) : v}});
  });
  up.at_col = {};  // the leaf payloads are in `outgoing` now; lowers the peak
  std::vector<std::vector<AggPacket>> at_col = inject_at_random_columns(
      shared, net, shared.local_rng(mix64(0x6ed157 ^ rng_tag)), kTagRedistribute, 3,
      outgoing.size(), /*ell1_hat=*/0, [&](size_t i) { return topo.host(outgoing[i].first); },
      [&](size_t i, NodeId) { return outgoing[i].second; });

  // Phase 4: aggregate all packets for member u toward h(id(u)).
  auto dest = [&](uint64_t g) { return shared.dest_col(g); };
  DownResult down = route_down(topo, net, shared.router_workspace(), std::move(at_col),
                               dest, rank, combine, nullptr, cache);
  sync_barrier(topo, net, shared.barrier_workspace());

  // Phase 5: deliver f-aggregates from the intermediate targets to the nodes.
  // Every node receives at most one aggregate, so a single round suffices;
  // every node knows that, so no barrier follows it.
  ExchangeRounds final_round{root_deliveries(
      topo, net, down, [](uint64_t member) { return static_cast<NodeId>(member); })};
  res.down_route = down.stats;
  run_exchange(net, final_round, kTagFinal, 3,
               [&](NodeId u, uint64_t, const Val& v) { res.at_node[u] = v; });

  res.rounds = net.rounds() - start_rounds;
  return res;
}

}  // namespace ncc
