#include "primitives/multicast.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"

namespace ncc {

namespace {
constexpr uint32_t kTagInject = 0x0b00;
constexpr uint32_t kTagToRoot = 0x0c00;
constexpr uint32_t kTagLeafDeliver = 0x0d00;
}  // namespace

MulticastSetupResult setup_multicast_trees(const Shared& shared, Network& net,
                                           const std::vector<MulticastMembership>& members,
                                           uint64_t rng_tag, CombiningCache* cache) {
  const Overlay& topo = shared.topo();
  obs::Span span(net, "multicast.setup");
  const NodeId n = topo.n();
  const NodeId cols = topo.columns();
  const uint32_t batch = cap_log(n);
  uint64_t start_rounds = net.rounds();

  MulticastSetupResult res;
  res.trees.leaf_members.assign(cols, {});

  // Injection: identical to the Aggregation preprocessing, but the landing
  // column of (group, member) is recorded as the leaf l(group, member).
  std::vector<std::vector<MulticastMembership>> per_member(n);
  for (const MulticastMembership& mm : members) {
    NCC_ASSERT(mm.member < n);
    per_member[mm.injecting_node()].push_back(mm);
  }
  uint32_t max_k = 0;
  for (NodeId u = 0; u < n; ++u)
    max_k = std::max<uint32_t>(max_k, static_cast<uint32_t>(per_member[u].size()));

  Rng inject = shared.local_rng(mix64(0x3e70b5 ^ rng_tag));
  std::vector<std::vector<AggPacket>> at_col(cols);
  uint32_t inject_rounds = (max_k + batch - 1) / batch;
  for (uint32_t r = 0; r < inject_rounds; ++r) {
    // Draw the landing columns from the shared injection stream, applying
    // local deposits inline and sending the rest.
    for (NodeId u = 0; u < n; ++u) {
      const auto& list = per_member[u];
      for (uint32_t j = r * batch;
           j < std::min<uint32_t>((r + 1) * batch, static_cast<uint32_t>(list.size()));
           ++j) {
        const MulticastMembership& mm = list[j];
        NodeId c = static_cast<NodeId>(inject.next_below(cols));
        res.trees.leaf_members[c].push_back({mm.group, mm.member});
        NodeId host = topo.host(c);
        if (host == u) {
          at_col[c].push_back({mm.group, Val{mm.member, 0}});
        } else {
          net.send(u, host, kTagInject, {mm.group, mm.member});
        }
      }
    }
    net.end_round();
    for (NodeId c = 0; c < cols; ++c) {
      for (const Message& m : net.inbox(topo.host(c))) {
        if (m.tag != kTagInject) continue;
        at_col[c].push_back({m.word(0), Val{m.word(1), 0}});
      }
    }
  }
  sync_barrier(topo, net, shared.barrier_workspace());

  auto dest = [&](uint64_t g) { return shared.dest_col(g); };
  auto rank = [&](uint64_t g) { return shared.rank(g); };
  DownResult down = route_down(topo, net, shared.router_workspace(), std::move(at_col),
                               dest, rank, agg::min_by_first, &res.trees, cache);
  res.route = down.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  res.rounds = net.rounds() - start_rounds;
  return res;
}

namespace {

MulticastResult run_multicast_impl(const Shared& shared, Network& net,
                                   const MulticastTrees& trees,
                                   const std::vector<MulticastSend>& sends,
                                   uint32_t ell_hat, uint64_t rng_tag,
                                   bool allow_multi_source, CombiningCache* cache) {
  const Overlay& topo = shared.topo();
  obs::Span span(net, "multicast");
  const NodeId n = topo.n();
  const NodeId cols = topo.columns();
  const uint32_t batch = cap_log(n);
  uint64_t start_rounds = net.rounds();

  MulticastResult res;
  res.received.assign(n, {});

  // Sources send their payloads to the tree roots. In the paper's simplified
  // variant each node sources at most one group (one round); the extension
  // remarked after Theorem 2.5 batches ceil(log n) handoffs per round.
  FlatMap<Val> payloads;
  {
    std::vector<std::vector<const MulticastSend*>> per_source(n);
    for (const MulticastSend& s : sends) {
      NCC_ASSERT(s.source < n);
      NCC_ASSERT_MSG(allow_multi_source || per_source[s.source].empty(),
                     "a node may source at most one multicast");
      if (!trees.root_col.find(s.group))
        continue;  // group with no members, or one served entirely from
                   // cache roots (no request reached the final level)
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

  // Spreading phase: copy payloads up the recorded trees.
  auto rank = [&](uint64_t g) { return shared.rank(g); };
  UpResult up =
      route_up(topo, net, shared.router_workspace(), trees, payloads, rank, cache);
  res.route = up.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  // Leaf delivery: l(i, u) sends p_i to u in a round chosen uniformly from
  // {1..ceil(ell_hat/log n)}. The schedule (and its random draws) is built
  // first; self-deliveries land immediately, the rest are sent round by
  // round.
  uint32_t s = std::max<uint32_t>(1, (ell_hat + batch - 1) / batch);
  Rng deliver_rng = shared.local_rng(mix64(0x7ea4de ^ rng_tag));
  struct Delivery {
    NodeId host;
    uint64_t group;
    Val val;
    NodeId target;
  };
  std::vector<std::vector<Delivery>> schedule(s);
  FlatMap<Val> here;  // payload per group present at the leaf column
  for (NodeId c = 0; c < cols; ++c) {
    if (!here.empty()) here.clear();
    for (const AggPacket& p : up.at_col[c]) here.emplace(p.group, p.val);
    for (const auto& [group, member] : trees.leaf_members[c]) {
      const Val* pv = here.find(group);
      if (!pv) continue;  // no payload multicast for this group
      NodeId host = topo.host(c);
      if (host == member) {
        res.received[member].push_back({group, *pv});
      } else {
        schedule[deliver_rng.next_below(s)].push_back({host, group, *pv, member});
      }
    }
  }
  for (uint32_t r = 0; r < s; ++r) {
    for (const Delivery& dl : schedule[r])
      net.send(dl.host, dl.target, kTagLeafDeliver, {dl.group, dl.val[0], dl.val[1]});
    net.end_round();
    for (NodeId u = 0; u < n; ++u) {
      for (const Message& m : net.inbox(u)) {
        if (m.tag != kTagLeafDeliver) continue;
        res.received[u].push_back({m.word(0), Val{m.word(1), m.word(2)}});
      }
    }
  }
  sync_barrier(topo, net, shared.barrier_workspace());

  res.rounds = net.rounds() - start_rounds;
  return res;
}

}  // namespace

MulticastResult run_multicast(const Shared& shared, Network& net,
                              const MulticastTrees& trees,
                              const std::vector<MulticastSend>& sends, uint32_t ell_hat,
                              uint64_t rng_tag, CombiningCache* cache) {
  return run_multicast_impl(shared, net, trees, sends, ell_hat, rng_tag,
                            /*allow_multi_source=*/false, cache);
}

MulticastResult run_multicast_multi(const Shared& shared, Network& net,
                                    const MulticastTrees& trees,
                                    const std::vector<MulticastSend>& sends,
                                    uint32_t ell_hat, uint64_t rng_tag,
                                    CombiningCache* cache) {
  return run_multicast_impl(shared, net, trees, sends, ell_hat, rng_tag,
                            /*allow_multi_source=*/true, cache);
}

}  // namespace ncc
