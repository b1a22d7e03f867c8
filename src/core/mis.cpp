#include "core/mis.hpp"

#include "common/assert.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"

namespace ncc {

MisResult run_mis(const Shared& shared, Network& net, const Graph& g,
                  const BroadcastTrees& bt, uint64_t rng_tag) {
  const NodeId n = g.n();
  const Overlay& topo = shared.topo();
  obs::Span span(net, "mis");
  uint64_t start_rounds = net.stats().total_rounds();

  MisResult res;
  std::vector<uint8_t> in_mis(n, 0);
  std::vector<uint8_t> active(n, 1);

  NCC_ASSERT_MSG(n < (NodeId{1} << 24), "value/id packing assumes n < 2^24");
  // Per-(phase, node) PRF draws instead of one sequential stream: every node
  // derives its coin from (seed, phase, u), its own local randomness.
  const uint64_t draw_seed = shared.local_rng(mix64(0x315a9 ^ rng_tag)).next();

  while (true) {
    ++res.phases;
    NCC_ASSERT_MSG(res.phases <= 40 * cap_log(n), "MIS failed to converge");
    const uint64_t phase_seed = mix64(draw_seed ^ (res.phases * 0x9e3779b97f4a7c15ULL));

    // Draw r(u) for active nodes; the id suffix makes values distinct, which
    // implements the tie-break of the continuous-[0,1] analysis.
    std::vector<Val> payload(n, Val{0, 0});
    std::vector<NodeId> senders;
    for (NodeId u = 0; u < n; ++u) {
      if (!active[u]) continue;
      uint64_t r = mix64(phase_seed ^ (uint64_t{u} + 1)) >> 24;  // 40 random bits
      payload[u] = Val{(r << 24) | u, 0};
      senders.push_back(u);
    }
    auto exch = neighborhood_exchange(shared, net, bt, senders, payload,
                                      agg::min_by_first,
                                      mix64(rng_tag ^ (res.phases * 131 + 1)));
    // Join the MIS iff own value beats the minimum among active neighbors
    // (or there is no active neighbor at all).
    std::vector<NodeId> joined;
    for (NodeId u : senders) {
      const auto& got = exch.at_node[u];
      if (!got.has_value() || payload[u][0] < (*got)[0]) {
        in_mis[u] = 1;
        active[u] = 0;
        joined.push_back(u);
      }
    }
    // Joiners knock out their neighbors.
    auto knock = neighborhood_exchange(shared, net, bt, joined, payload,
                                       agg::min_by_first,
                                       mix64(rng_tag ^ (res.phases * 131 + 2)));
    for (NodeId u = 0; u < n; ++u)
      if (active[u] && knock.at_node[u].has_value()) active[u] = 0;
    // Termination: any active node left?
    std::vector<std::optional<Val>> inputs(n);
    for (NodeId u = 0; u < n; ++u)
      if (active[u]) inputs[u] = Val{1, 0};
    auto ab = aggregate_and_broadcast(topo, net, shared.barrier_workspace(), inputs, agg::sum);
    if (!ab.value.has_value()) break;
  }

  res.in_mis.assign(in_mis.begin(), in_mis.end());
  res.rounds = net.stats().total_rounds() - start_rounds;
  return res;
}

}  // namespace ncc
