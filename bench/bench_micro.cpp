// Micro-benchmarks (google-benchmark): wall-clock throughput of the
// simulator substrate itself — network round processing and the empty-round
// floor, Aggregate-and-Broadcast latency, aggregation, the router's
// hot-state worst case, the k-wise hash and FindMin's sketch bits. These
// gate how large the reproduction sweeps can go; they measure the
// simulator, not the model.
#include <benchmark/benchmark.h>

#include "common/hash.hpp"
#include "graph/generators.hpp"
#include "net/network.hpp"
#include "overlay/overlay.hpp"
#include "overlay/router.hpp"
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

// The per-round floor: an end_round() with nothing in flight, after one busy
// round whose inboxes it must expire. Sparse workloads (MST) are mostly such
// rounds, so this should not grow with n.
static void BM_EmptyRound(benchmark::State& state) {
  NodeId n = static_cast<NodeId>(state.range(0));
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 1;
  Network net(cfg);
  for (NodeId u = 0; u < n; ++u) net.send(u, (u + 1) % n, 1, {u});
  net.end_round();
  for (auto _ : state) {
    net.end_round();
    benchmark::DoNotOptimize(net.rounds());
  }
}
BENCHMARK(BM_EmptyRound)->Arg(64)->Arg(1024)->Arg(4096);

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

// The router's worst case for per-state queue scans: `range(0)` distinct
// groups injected at one level-0 column, so a single routing state queues
// all of them and every round contends over the whole queue.
static void BM_RouteDownHotState(benchmark::State& state) {
  const uint64_t groups = static_cast<uint64_t>(state.range(0));
  constexpr NodeId kN = 1024;
  NetConfig cfg;
  cfg.n = kN;
  cfg.seed = 1;
  Network net(cfg);
  Overlay topo(OverlayKind::kButterfly, kN);
  RouterWorkspace ws;
  std::vector<std::vector<AggPacket>> at_col(topo.columns());
  for (uint64_t g = 0; g < groups; ++g) at_col[0].push_back({g, Val{1, 0}});
  auto dest = [](uint64_t g) { return static_cast<NodeId>(mix64(g) % kN); };
  auto rank = [](uint64_t g) { return mix64(g ^ 0x5eed); };
  uint64_t moved = 0;
  for (auto _ : state) {
    DownResult res = route_down(topo, net, ws, at_col, dest, rank, agg::sum);
    moved += res.stats.packets_moved;
    benchmark::DoNotOptimize(res.root_values);
  }
  state.SetItemsProcessed(static_cast<int64_t>(moved));
}
BENCHMARK(BM_RouteDownHotState)->Arg(1000);

static void BM_KWiseHash(benchmark::State& state) {
  Rng rng(4);
  KWiseHash h(static_cast<uint32_t>(state.range(0)), rng);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(++x));
  }
}
BENCHMARK(BM_KWiseHash)->Arg(2)->Arg(16)->Arg(32);

// FindMin's per-arc sketch bits (40 trials of 12-wise hashes, as in an
// n = 64 MST): the per-trial fn(t).bit(x) loop against bit_word's one pass.
static void BM_FindMinBits(benchmark::State& state) {
  const bool one_pass = state.range(0) == 1;
  HashFamily fam(40, 12, 5);
  Rng rng(6);
  for (auto _ : state) {
    const uint64_t x = rng.next();
    uint64_t word = 0;
    if (one_pass) {
      word = fam.bit_word(x, 40);
    } else {
      for (uint32_t t = 0; t < 40; ++t) word |= static_cast<uint64_t>(fam.fn(t).bit(x)) << t;
    }
    benchmark::DoNotOptimize(word);
  }
  state.SetLabel(one_pass ? "bit_word" : "loop");
}
BENCHMARK(BM_FindMinBits)->Arg(0)->Arg(1);

BENCHMARK_MAIN();
