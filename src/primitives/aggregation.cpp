#include "primitives/aggregation.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"

namespace ncc {

namespace {
constexpr uint32_t kTagInject = 0x0900;
constexpr uint32_t kTagDeliver = 0x0a00;
}  // namespace

AggregationResult run_aggregation(const Shared& shared, Network& net,
                                  const AggregationProblem& problem,
                                  uint64_t rng_tag, CombiningCache* cache) {
  const Overlay& topo = shared.topo();
  const NodeId n = topo.n();
  const NodeId cols = topo.columns();
  const uint32_t batch = cap_log(n);  // ceil(log n) packets per round per node
  obs::Span span(net, "aggregation");
  uint64_t start_rounds = net.rounds();

  AggregationResult res;
  res.global_load = problem.items.size();

  // --- Preprocessing: batched random injection to level-0 butterfly nodes ---
  // Per-member packet lists (the paper's enumeration p_1..p_k per node), as
  // one counting-sorted array: member u's items, in input order, are
  // by_member[member_off[u] .. member_off[u+1]).
  std::vector<uint32_t> member_off(n + 1, 0);
  for (const AggregationItem& it : problem.items) {
    NCC_ASSERT(it.member < n);
    ++member_off[it.member + 1];
  }
  uint32_t max_k = 0;
  for (NodeId u = 0; u < n; ++u) {
    max_k = std::max(max_k, member_off[u + 1]);
    member_off[u + 1] += member_off[u];
  }
  res.ell1 = max_k;
  std::vector<const AggregationItem*> by_member(problem.items.size());
  {
    std::vector<uint32_t> fill(member_off.begin(), member_off.end() - 1);
    for (const AggregationItem& it : problem.items) by_member[fill[it.member]++] = &it;
  }

  Rng inject = shared.local_rng(mix64(0x1a9e17 ^ rng_tag));
  std::vector<std::vector<AggPacket>> at_col(cols);
  uint32_t inject_rounds = (max_k + batch - 1) / batch;
  for (uint32_t r = 0; r < inject_rounds; ++r) {
    for (NodeId u = 0; u < n; ++u) {
      const uint32_t k = member_off[u + 1] - member_off[u];
      for (uint32_t j = r * batch; j < std::min((r + 1) * batch, k); ++j) {
        const AggregationItem& it = *by_member[member_off[u] + j];
        NodeId c = static_cast<NodeId>(inject.next_below(cols));
        NodeId host = topo.host(c);
        if (host == u) {
          at_col[c].push_back({it.group, it.value});
        } else {
          net.send(u, host, kTagInject, {it.group, it.value[0], it.value[1]});
        }
      }
    }
    net.end_round();
    for (NodeId c = 0; c < cols; ++c) {
      for (const Message& m : net.inbox(topo.host(c))) {
        if (m.tag != kTagInject) continue;
        at_col[c].push_back({m.word(0), Val{m.word(1), m.word(2)}});
      }
    }
  }
  sync_barrier(topo, net, shared.barrier_workspace());

  // --- Combining: random-rank routing with combining down the butterfly ---
  auto dest = [&](uint64_t g) { return shared.dest_col(g); };
  auto rank = [&](uint64_t g) { return shared.rank(g); };
  DownResult down = route_down(topo, net, shared.router_workspace(), std::move(at_col),
                               dest, rank, problem.combine, nullptr, cache);
  res.route = down.stats;
  sync_barrier(topo, net, shared.barrier_workspace());

  // --- Postprocessing: deliver aggregates to targets in random rounds ---
  uint32_t s = std::max<uint32_t>(1, (problem.ell2_hat + batch - 1) / batch);
  Rng deliver_rng = shared.local_rng(mix64(0xde117e ^ rng_tag));
  // Schedule: per round, the list of (root host, group, val, target).
  struct Delivery {
    NodeId host;
    uint64_t group;
    Val val;
    NodeId target;
  };
  std::vector<std::vector<Delivery>> schedule(s);
  // Deterministic iteration order over groups for reproducibility.
  std::vector<uint64_t> groups;
  groups.reserve(down.root_values.size());
  down.root_values.for_each([&](uint64_t g, const Val&) { groups.push_back(g); });
  std::sort(groups.begin(), groups.end());
  for (uint64_t g : groups) {
    NodeId host = topo.host(down.root_col.at(g));
    NodeId target = problem.target(g);
    NCC_ASSERT(target < n);
    schedule[deliver_rng.next_below(s)].push_back({host, g, down.root_values.at(g), target});
  }
  for (uint32_t r = 0; r < s; ++r) {
    for (const Delivery& dl : schedule[r]) {
      if (dl.host == dl.target) {
        res.at_target.emplace(dl.group, dl.val);
      } else {
        net.send(dl.host, dl.target, kTagDeliver, {dl.group, dl.val[0], dl.val[1]});
      }
    }
    net.end_round();
    for (NodeId u = 0; u < n; ++u) {
      for (const Message& m : net.inbox(u)) {
        if (m.tag != kTagDeliver) continue;
        res.at_target.emplace(m.word(0), Val{m.word(1), m.word(2)});
      }
    }
  }
  sync_barrier(topo, net, shared.barrier_workspace());

  res.rounds = net.rounds() - start_rounds;
  return res;
}

}  // namespace ncc
