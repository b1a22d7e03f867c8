#include "primitives/multi_aggregation.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "engine/engine.hpp"
#include "primitives/aggregate_broadcast.hpp"

namespace ncc {

namespace {
constexpr uint32_t kTagToRoot = 0x0e00;
constexpr uint32_t kTagRedistribute = 0x0f00;
constexpr uint32_t kTagFinal = 0x1000;
}  // namespace

namespace {

MultiAggregationResult run_multi_aggregation_impl(
    const Shared& shared, Network& net, const MulticastTrees& trees,
    const std::vector<MulticastSend>& sends, const CombineFn& combine,
    uint64_t rng_tag, const LeafAnnotateFn& annotate, bool allow_multi_source,
    CombiningCache* cache) {
  const Overlay& topo = shared.topo();
  const NodeId n = topo.n();
  const NodeId cols = topo.columns();
  const uint32_t batch = cap_log(n);
  uint64_t start_rounds = net.rounds();

  MultiAggregationResult res;
  res.at_node.assign(n, std::nullopt);

  // Phase 1: sources -> tree roots (batched ceil(log n)/round when a node
  // sources several groups; the extension remarked after Theorem 2.6).
  FlatMap<Val> payloads;
  {
    std::vector<std::vector<const MulticastSend*>> per_source(n);
    for (const MulticastSend& s : sends) {
      NCC_ASSERT(s.source < n);
      NCC_ASSERT_MSG(allow_multi_source || per_source[s.source].empty(),
                     "a node may source at most one multicast");
      if (!trees.root_col.find(s.group)) continue;
      per_source[s.source].push_back(&s);
    }
    uint32_t max_k = 0;
    for (NodeId u = 0; u < n; ++u)
      max_k = std::max<uint32_t>(max_k, static_cast<uint32_t>(per_source[u].size()));
    uint32_t handoff_rounds = std::max<uint32_t>(1, (max_k + batch - 1) / batch);
    for (uint32_t r = 0; r < handoff_rounds; ++r) {
      for (NodeId u = 0; u < n; ++u) {
        const auto& list = per_source[u];
        for (uint32_t j = r * batch;
             j < std::min<uint32_t>((r + 1) * batch,
                                    static_cast<uint32_t>(list.size()));
             ++j) {
          const MulticastSend& s = *list[j];
          NodeId host = topo.host(trees.root_col.at(s.group));
          if (host == u) {
            payloads.emplace(s.group, s.payload);
          } else {
            net.send(u, host, kTagToRoot, {s.group, s.payload[0], s.payload[1]});
          }
        }
      }
      net.end_round();
      // Column-order inbox scan: the emplace order (first write wins) is
      // fixed by the column order.
      for (NodeId c = 0; c < cols; ++c) {
        for (const Message& m : net.inbox(topo.host(c))) {
          if (m.tag != kTagToRoot) continue;
          payloads.emplace(m.word(0), Val{m.word(1), m.word(2)});
        }
      }
    }
  }

  // Phase 2: multicast up the trees to the leaves.
  auto rank = [&](uint64_t g) { return shared.rank(g); };
  UpResult up =
      route_up(topo, net, shared.router_workspace(), trees, payloads, rank, cache);
  res.up_route = up.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  // Phase 3: remap (group, member) -> (member, p) at the leaves and
  // redistribute the packets randomly over the level-0 butterfly nodes,
  // batched ceil(log n) per round per host.
  std::vector<std::vector<AggPacket>> outgoing(cols);  // per leaf column
  FlatMap<Val> here;  // payload per group present at the leaf column
  for (NodeId c = 0; c < cols; ++c) {
    if (!here.empty()) here.clear();
    for (const AggPacket& p : up.at_col[c]) here.emplace(p.group, p.val);
    for (const auto& [group, member] : trees.leaf_members[c]) {
      const Val* pv = here.find(group);
      if (!pv) continue;
      Val v = annotate ? annotate(group, member, *pv) : *pv;
      outgoing[c].push_back({member, v});
    }
  }
  Rng redis = shared.local_rng(mix64(0x6ed157 ^ rng_tag));
  std::vector<std::vector<AggPacket>> at_col(cols);
  uint32_t max_out = 0;
  for (NodeId c = 0; c < cols; ++c)
    max_out = std::max<uint32_t>(max_out, static_cast<uint32_t>(outgoing[c].size()));
  uint32_t redis_rounds = (max_out + batch - 1) / batch;
  for (uint32_t r = 0; r < redis_rounds; ++r) {
    // Draws from the shared redistribution stream; self-moves land in at_col
    // directly.
    for (NodeId c = 0; c < cols; ++c) {
      const auto& list = outgoing[c];
      for (uint32_t j = r * batch;
           j < std::min<uint32_t>((r + 1) * batch, static_cast<uint32_t>(list.size()));
           ++j) {
        NodeId tc = static_cast<NodeId>(redis.next_below(cols));
        if (tc == c) {
          at_col[tc].push_back(list[j]);
        } else {
          net.send(topo.host(c), topo.host(tc), kTagRedistribute,
                   {list[j].group, list[j].val[0], list[j].val[1]});
        }
      }
    }
    net.end_round();
    for (NodeId c = 0; c < cols; ++c) {
      for (const Message& m : net.inbox(topo.host(c))) {
        if (m.tag != kTagRedistribute) continue;
        at_col[c].push_back({m.word(0), Val{m.word(1), m.word(2)}});
      }
    }
  }
  sync_barrier(topo, net, shared.barrier_workspace());

  // Phase 4: aggregate all packets for member u toward h(id(u)).
  auto dest = [&](uint64_t g) { return shared.dest_col(g); };
  DownResult down = route_down(topo, net, shared.router_workspace(), std::move(at_col),
                               dest, rank, combine, nullptr, cache);
  res.down_route = down.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  // Phase 5: deliver f-aggregates from the intermediate targets to the nodes.
  // Every node receives at most one aggregate, so a single round suffices.
  std::vector<uint64_t> members;
  members.reserve(down.root_values.size());
  down.root_values.for_each([&](uint64_t g, const Val&) { members.push_back(g); });
  std::sort(members.begin(), members.end());
  engine_send_loop(net, members.size(), [&](uint64_t i, Network& out) {
    uint64_t g = members[i];
    NodeId member = static_cast<NodeId>(g);
    NCC_ASSERT(member < n);
    NodeId host = topo.host(down.root_col.at(g));
    const Val& v = down.root_values.at(g);
    if (host == member) {
      res.at_node[member] = v;
    } else {
      out.send(host, member, kTagFinal, {g, v[0], v[1]});
    }
  });
  net.end_round();
  for (NodeId u = 0; u < n; ++u) {
    for (const Message& m : net.inbox(u)) {
      if (m.tag != kTagFinal) continue;
      res.at_node[u] = Val{m.word(1), m.word(2)};
    }
  }
  sync_barrier(topo, net, shared.barrier_workspace());

  res.rounds = net.rounds() - start_rounds;
  return res;
}

}  // namespace

MultiAggregationResult run_multi_aggregation(const Shared& shared, Network& net,
                                             const MulticastTrees& trees,
                                             const std::vector<MulticastSend>& sends,
                                             const CombineFn& combine, uint64_t rng_tag,
                                             const LeafAnnotateFn& annotate,
                                             CombiningCache* cache) {
  return run_multi_aggregation_impl(shared, net, trees, sends, combine, rng_tag,
                                    annotate, /*allow_multi_source=*/false, cache);
}

MultiAggregationResult run_multi_aggregation_multi(
    const Shared& shared, Network& net, const MulticastTrees& trees,
    const std::vector<MulticastSend>& sends, const CombineFn& combine,
    uint64_t rng_tag, const LeafAnnotateFn& annotate, CombiningCache* cache) {
  return run_multi_aggregation_impl(shared, net, trees, sends, combine, rng_tag,
                                    annotate, /*allow_multi_source=*/true, cache);
}

}  // namespace ncc
