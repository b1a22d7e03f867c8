// Micro-benchmarks (google-benchmark): wall-clock throughput of the
// simulator substrate itself — network round processing, butterfly routing,
// Aggregate-and-Broadcast latency, and the k-wise hash. These gate how large
// the reproduction sweeps can go; they measure the simulator, not the model.
#include <benchmark/benchmark.h>

#include "common/hash.hpp"
#include "graph/generators.hpp"
#include "net/network.hpp"
#include "overlay/overlay.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/aggregation.hpp"

using namespace ncc;

static void BM_NetworkRound(benchmark::State& state) {
  NodeId n = static_cast<NodeId>(state.range(0));
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 1;
  Network net(cfg);
  Rng rng(2);
  uint64_t msgs = 0;
  for (auto _ : state) {
    for (NodeId u = 0; u < n; ++u) {
      NodeId v = static_cast<NodeId>(rng.next_below(n));
      if (v != u) {
        net.send(u, v, 1, {u, v});
        ++msgs;
      }
    }
    net.end_round();
  }
  state.SetItemsProcessed(static_cast<int64_t>(msgs));
}
BENCHMARK(BM_NetworkRound)->Arg(256)->Arg(1024)->Arg(4096);

static void BM_AggregateBroadcast(benchmark::State& state) {
  NodeId n = static_cast<NodeId>(state.range(0));
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 1;
  Network net(cfg);
  Overlay topo(OverlayKind::kButterfly, n);
  std::vector<std::optional<Val>> inputs(n, Val{1, 0});
  for (auto _ : state) {
    auto res = aggregate_and_broadcast(topo, net, inputs, agg::sum);
    benchmark::DoNotOptimize(res.value);
  }
}
BENCHMARK(BM_AggregateBroadcast)->Arg(256)->Arg(1024)->Arg(4096);

static void BM_Aggregation(benchmark::State& state) {
  NodeId n = static_cast<NodeId>(state.range(0));
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 1;
  Network net(cfg);
  Shared shared(n, 1);
  Rng rng(3);
  AggregationProblem prob;
  prob.combine = agg::sum;
  prob.target = [n](uint64_t g) { return static_cast<NodeId>(g % n); };
  prob.ell2_hat = 4;
  for (NodeId u = 0; u < n; ++u)
    for (int j = 0; j < 4; ++j) prob.items.push_back({u, rng.next_below(n / 4), Val{1, 0}});
  uint64_t tag = 0;
  for (auto _ : state) {
    auto res = run_aggregation(shared, net, prob, ++tag);
    benchmark::DoNotOptimize(res.at_target);
  }
}
BENCHMARK(BM_Aggregation)->Arg(256)->Arg(1024);

static void BM_KWiseHash(benchmark::State& state) {
  Rng rng(4);
  KWiseHash h(static_cast<uint32_t>(state.range(0)), rng);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(++x));
  }
}
BENCHMARK(BM_KWiseHash)->Arg(2)->Arg(16)->Arg(32);

BENCHMARK_MAIN();
