#include "primitives/aggregation.hpp"

#include "common/assert.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/exchange.hpp"

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
  obs::Span span(net, "aggregation");
  uint64_t start_rounds = net.rounds();

  AggregationResult res;

  // --- Preprocessing: batched random injection to level-0 butterfly nodes ---
  // (closed by a barrier only when no bound ell1_hat is known).
  const std::vector<AggregationItem>& items = problem.items;
  std::vector<std::vector<AggPacket>> at_col = inject_at_random_columns(
      shared, net, shared.local_rng(mix64(0x1a9e17 ^ rng_tag)), kTagInject, 3, items.size(),
      problem.ell1_hat, [&](size_t i) { return items[i].member; },
      [&](size_t i, NodeId) { return AggPacket{items[i].group, items[i].value}; });

  // --- Combining: random-rank routing with combining down the butterfly ---
  auto dest = [&](uint64_t g) { return shared.dest_col(g); };
  auto rank = [&](uint64_t g) { return shared.rank(g); };
  DownResult down = route_down(topo, net, shared.router_workspace(), std::move(at_col),
                               dest, rank, problem.combine, nullptr, cache);
  sync_barrier(topo, net, shared.barrier_workspace());

  // --- Postprocessing: deliver aggregates to targets in random rounds ---
  // Every group draws its round, a target's own groups included. The phase
  // lasts max(1, ceil(ell2_hat / log n)) rounds, a length every node knows,
  // so no barrier follows it.
  Rng deliver_rng = shared.local_rng(mix64(0xde117e ^ rng_tag));
  ExchangeRounds deliveries = random_rounds(n, problem.ell2_hat, deliver_rng,
                                            root_deliveries(topo, net, down, problem.target));
  res.route = down.stats;
  run_exchange(net, deliveries, kTagDeliver, 3,
               [&](NodeId, uint64_t group, const Val& v) { res.at_target.emplace(group, v); });

  res.rounds = net.rounds() - start_rounds;
  return res;
}

}  // namespace ncc
