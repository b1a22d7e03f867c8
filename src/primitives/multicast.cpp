#include "primitives/multicast.hpp"

#include "common/assert.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/exchange.hpp"

namespace ncc {

namespace {
constexpr uint32_t kTagInject = 0x0b00;
constexpr uint32_t kTagToRoot = 0x0c00;
constexpr uint32_t kTagLeafDeliver = 0x0d00;
}  // namespace

MulticastSetupResult setup_multicast_trees(const Shared& shared, Network& net,
                                           const std::vector<MulticastMembership>& members,
                                           uint32_t ell1_hat, uint64_t rng_tag,
                                           CombiningCache* cache) {
  const Overlay& topo = shared.topo();
  obs::Span span(net, "multicast.setup");
  const NodeId n = topo.n();
  uint64_t start_rounds = net.rounds();

  MulticastSetupResult res;
  res.trees.leaf_members.assign(topo.columns(), {});

  // Injection: identical to the Aggregation preprocessing, but the landing
  // column of (group, member) is recorded as the leaf l(group, member). The
  // membership packet is 2 words (group, member). A barrier closes it only
  // when no bound ell1_hat is known.
  std::vector<std::vector<AggPacket>> at_col = inject_at_random_columns(
      shared, net, shared.local_rng(mix64(0x3e70b5 ^ rng_tag)), kTagInject, 2, members.size(),
      ell1_hat, [&](size_t i) { return members[i].injecting_node(); },
      [&](size_t i, NodeId c) {
        NCC_ASSERT(members[i].member < n);
        res.trees.leaf_members[c].push_back({members[i].group, members[i].member});
        return AggPacket{members[i].group, Val{members[i].member, 0}};
      });

  auto dest = [&](uint64_t g) { return shared.dest_col(g); };
  auto rank = [&](uint64_t g) { return shared.rank(g); };
  DownResult down = route_down(topo, net, shared.router_workspace(), std::move(at_col),
                               dest, rank, agg::min_by_first, &res.trees, cache);
  res.route = down.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  res.rounds = net.rounds() - start_rounds;
  return res;
}

MulticastResult run_multicast(const Shared& shared, Network& net, const MulticastTrees& trees,
                              const std::vector<MulticastSend>& sends, uint32_t ell_hat,
                              uint64_t rng_tag, CombiningCache* cache) {
  const Overlay& topo = shared.topo();
  obs::Span span(net, "multicast");
  const NodeId n = topo.n();
  uint64_t start_rounds = net.rounds();

  MulticastResult res;
  res.received.assign(n, {});

  // Sources hand their payloads to the tree roots, then the Spreading Phase
  // copies them up the recorded trees.
  FlatMap<Val> payloads = hand_off_to_roots(topo, net, trees, sends, kTagToRoot);
  auto rank = [&](uint64_t g) { return shared.rank(g); };
  UpResult up =
      route_up(topo, net, shared.router_workspace(), trees, payloads, rank, cache);
  res.route = up.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  // Leaf delivery: l(i, u) sends p_i to u in a round chosen uniformly from
  // {1..ceil(ell_hat/log n)}. Self-deliveries land at once and draw no round.
  // Every node knows that length, so no barrier follows the phase. The
  // members come from the trees' own records, never from a message, so each
  // is a node.
  std::vector<ExchangeEntry> deliveries;
  for_each_leaf_payload(trees, up.at_col, [&](NodeId c, uint64_t g, NodeId member, const Val& v) {
    if (topo.host(c) == member) {
      res.received[member].push_back({g, v});
    } else {
      deliveries.push_back({topo.host(c), member, g, v});
    }
  });
  Rng deliver_rng = shared.local_rng(mix64(0x7ea4de ^ rng_tag));
  run_exchange(net, random_rounds(n, ell_hat, deliver_rng, deliveries), kTagLeafDeliver, 3,
               [&](NodeId u, uint64_t group, const Val& v) {
                 res.received[u].push_back({group, v});
               });

  res.rounds = net.rounds() - start_rounds;
  return res;
}

}  // namespace ncc
