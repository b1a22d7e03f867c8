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
    const uint32_t S = engine_shards(net);
    std::vector<std::vector<std::pair<uint64_t, Val>>> got(S);
    std::vector<Message> handoff;
    for (uint32_t r = 0; r < handoff_rounds; ++r) {
      handoff.clear();
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
            handoff.push_back(
                Message(u, host, kTagToRoot, {s.group, s.payload[0], s.payload[1]}));
          }
        }
      }
      engine_send_loop(net, handoff.size(),
                       [&](uint64_t i, MsgSink& out) { out.send(handoff[i]); });
      net.end_round();
      // Per-shard collect + shard-order merge keeps emplace order (first
      // write wins) identical to the sequential scan.
      engine_ranges(net, cols, [&](uint32_t s, uint64_t b, uint64_t e) {
        for (uint64_t ci = b; ci < e; ++ci) {
          for (const Message& m : net.inbox(topo.host(static_cast<NodeId>(ci)))) {
            if (m.tag != kTagToRoot) continue;
            got[s].push_back({m.word(0), Val{m.word(1), m.word(2)}});
          }
        }
      });
      for (uint32_t s = 0; s < S; ++s) {
        for (const auto& [g, v] : got[s]) payloads.emplace(g, v);
        got[s].clear();
      }
    }
  }

  // Phase 2: multicast up the trees to the leaves.
  auto rank = [&](uint64_t g) { return shared.rank(g); };
  UpResult up =
      route_up(topo, net, shared.router_workspace(), trees, payloads, rank, cache);
  res.up_route = up.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  // Phase 3: remap (group, member) -> (member, p) at the leaves (per-column
  // state only — shard-parallel) and redistribute the packets randomly over
  // the level-0 butterfly nodes, batched ceil(log n) per round per host.
  std::vector<std::vector<AggPacket>> outgoing(cols);  // per leaf column
  engine_for(net, cols, [&](uint64_t ci) {
    NodeId c = static_cast<NodeId>(ci);
    FlatMap<Val> here;
    for (const AggPacket& p : up.at_col[c]) here.emplace(p.group, p.val);
    for (const auto& [group, member] : trees.leaf_members[c]) {
      const Val* pv = here.find(group);
      if (!pv) continue;
      Val v = annotate ? annotate(group, member, *pv) : *pv;
      outgoing[c].push_back({member, v});
    }
  });
  Rng redis = shared.local_rng(mix64(0x6ed157 ^ rng_tag));
  std::vector<std::vector<AggPacket>> at_col(cols);
  uint32_t max_out = 0;
  for (NodeId c = 0; c < cols; ++c)
    max_out = std::max<uint32_t>(max_out, static_cast<uint32_t>(outgoing[c].size()));
  uint32_t redis_rounds = (max_out + batch - 1) / batch;
  std::vector<Message> moves;
  for (uint32_t r = 0; r < redis_rounds; ++r) {
    // Sequential draw pass (shared redistribution stream) staging the real
    // messages; self-moves land in at_col directly.
    moves.clear();
    for (NodeId c = 0; c < cols; ++c) {
      const auto& list = outgoing[c];
      for (uint32_t j = r * batch;
           j < std::min<uint32_t>((r + 1) * batch, static_cast<uint32_t>(list.size()));
           ++j) {
        NodeId tc = static_cast<NodeId>(redis.next_below(cols));
        if (tc == c) {
          at_col[tc].push_back(list[j]);
        } else {
          moves.push_back(Message(topo.host(c), topo.host(tc), kTagRedistribute,
                                  {list[j].group, list[j].val[0], list[j].val[1]}));
        }
      }
    }
    engine_send_loop(net, moves.size(),
                     [&](uint64_t i, MsgSink& out) { out.send(moves[i]); });
    net.end_round();
    engine_for(net, cols, [&](uint64_t ci) {
      NodeId c = static_cast<NodeId>(ci);
      for (const Message& m : net.inbox(topo.host(c))) {
        if (m.tag != kTagRedistribute) continue;
        at_col[c].push_back({m.word(0), Val{m.word(1), m.word(2)}});
      }
    });
  }
  sync_barrier(topo, net, shared.barrier_workspace());

  // Phase 4: aggregate all packets for member u toward h(id(u)).
  auto dest = [&](uint64_t g) { return shared.dest_col(g); };
  DownResult down = route_down(topo, net, shared.router_workspace(), std::move(at_col),
                               dest, rank, combine, nullptr, cache);
  res.down_route = down.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  // Phase 5: deliver f-aggregates from the intermediate targets to the nodes.
  // Every node receives at most one aggregate, so a single round suffices;
  // member ids are distinct, so the self-delivery writes are per-item.
  std::vector<uint64_t> members;
  members.reserve(down.root_values.size());
  down.root_values.for_each([&](uint64_t g, const Val&) { members.push_back(g); });
  std::sort(members.begin(), members.end());
  engine_send_loop(net, members.size(), [&](uint64_t i, MsgSink& out) {
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
  engine_for(net, n, [&](uint64_t ui) {
    NodeId u = static_cast<NodeId>(ui);
    for (const Message& m : net.inbox(u)) {
      if (m.tag != kTagFinal) continue;
      res.at_node[u] = Val{m.word(1), m.word(2)};
    }
  });
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
