#include "core/bfs.hpp"

#include "common/assert.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"

namespace ncc {

BfsResult run_bfs(const Shared& shared, Network& net, const Graph& g,
                  const BroadcastTrees& bt, NodeId source, uint64_t rng_tag) {
  const NodeId n = g.n();
  NCC_ASSERT(source < n);
  const Overlay& topo = shared.topo();
  obs::Span span(net, "bfs");
  uint64_t start_rounds = net.stats().total_rounds();

  BfsResult res;
  res.dist.assign(n, UINT32_MAX);
  res.parent.resize(n);
  for (NodeId u = 0; u < n; ++u) res.parent[u] = u;
  res.dist[source] = 0;

  std::vector<NodeId> active{source};
  std::vector<Val> payload(n, Val{0, 0});
  while (true) {
    ++res.phases;
    obs::Span phase_span(net, "bfs.phase");
    for (NodeId u : active) payload[u] = Val{u, 0};
    auto exch = neighborhood_exchange(shared, net, bt, active, payload,
                                      agg::min_by_first,
                                      mix64(rng_tag ^ (res.phases * 977)));
    // Frontier scan in node order: the newly reached nodes form the next
    // frontier.
    std::vector<NodeId> next;
    for (NodeId u = 0; u < n; ++u) {
      if (res.dist[u] != UINT32_MAX || !exch.at_node[u].has_value()) continue;
      res.dist[u] = res.phases;
      res.parent[u] = static_cast<NodeId>((*exch.at_node[u])[0]);
      next.push_back(u);
    }
    // Synchronize and decide termination: did anyone get newly reached?
    std::vector<std::optional<Val>> inputs(n);
    for (NodeId u : next) inputs[u] = Val{1, 0};
    auto ab = aggregate_and_broadcast(topo, net, shared.barrier_workspace(), inputs, agg::sum);
    if (!ab.value.has_value()) break;
    active = std::move(next);
  }

  res.rounds = net.stats().total_rounds() - start_rounds;
  return res;
}

}  // namespace ncc
