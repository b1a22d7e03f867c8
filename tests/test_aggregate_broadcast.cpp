// Tests for the Aggregate-and-Broadcast primitive (Theorem 2.2).
#include <gtest/gtest.h>

#include <tuple>

#include "overlay/overlay.hpp"
#include "primitives/aggregate_broadcast.hpp"

using namespace ncc;

namespace {
Network make(NodeId n, uint64_t seed = 1) {
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return Network(cfg);
}
}  // namespace

TEST(AggregateBroadcast, MaxOverSubset) {
  const NodeId n = 40;
  Network net = make(n);
  Overlay topo(OverlayKind::kButterfly, n);
  std::vector<std::optional<Val>> inputs(n);
  inputs[3] = Val{17, 3};
  inputs[21] = Val{99, 21};
  inputs[39] = Val{4, 39};
  BarrierWorkspace ws;
  auto res = aggregate_and_broadcast(topo, net, ws, inputs, agg::max_by_first);
  ASSERT_TRUE(res.value);
  EXPECT_EQ((*res.value)[0], 99u);
  EXPECT_EQ((*res.value)[1], 21u);  // second word carries the argmax
}

TEST(AggregateBroadcast, SingleInput) {
  Network net = make(17);
  Overlay topo(OverlayKind::kButterfly, 17);
  std::vector<std::optional<Val>> inputs(17);
  inputs[16] = Val{5, 0};  // a non-emulating node (16 = 2^4)
  BarrierWorkspace ws;
  auto res = aggregate_and_broadcast(topo, net, ws, inputs, agg::sum);
  ASSERT_TRUE(res.value);
  EXPECT_EQ((*res.value)[0], 5u);
}

TEST(AggregateBroadcast, MinNodeId) {
  const NodeId n = 100;
  Network net = make(n);
  Overlay topo(OverlayKind::kButterfly, n);
  std::vector<std::optional<Val>> inputs(n);
  for (NodeId u = 30; u < 70; ++u) inputs[u] = Val{u, 0};
  BarrierWorkspace ws;
  auto res = aggregate_and_broadcast(topo, net, ws, inputs, agg::min_by_first);
  ASSERT_TRUE(res.value);
  EXPECT_EQ((*res.value)[0], 30u);
}

TEST(AggregateBroadcast, RoundsAreLogarithmic) {
  for (NodeId n : {8u, 64u, 512u, 4096u}) {
    Network net = make(n);
    Overlay topo(OverlayKind::kButterfly, n);
    std::vector<std::optional<Val>> inputs(n, Val{1, 0});
    BarrierWorkspace ws;
    auto res = aggregate_and_broadcast(topo, net, ws, inputs, agg::sum);
    // Exactly 2d + 2 rounds by construction (attach + d down + d up + detach).
    EXPECT_EQ(res.rounds, 2ull * topo.dims() + 2);
    EXPECT_EQ(net.stats().messages_dropped, 0u);
  }
}

TEST(AggregateBroadcast, BarrierHasFixedCost) {
  const NodeId n = 128;
  Network net = make(n);
  Overlay topo(OverlayKind::kButterfly, n);
  BarrierWorkspace ws;
  uint64_t r1 = sync_barrier(topo, net, ws);
  uint64_t r2 = sync_barrier(topo, net, ws);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, 2ull * topo.dims() + 2);
}

TEST(AggregateBroadcast, XorAggregate) {
  const NodeId n = 33;
  Network net = make(n);
  Overlay topo(OverlayKind::kButterfly, n);
  std::vector<std::optional<Val>> inputs(n);
  uint64_t expect0 = 0, expect1 = 0;
  for (NodeId u = 0; u < n; ++u) {
    uint64_t a = u * 2654435761u, b = u * 40503u;
    inputs[u] = Val{a, b};
    expect0 ^= a;
    expect1 ^= b;
  }
  BarrierWorkspace ws;
  auto res = aggregate_and_broadcast(topo, net, ws, inputs, agg::xor_xor);
  ASSERT_TRUE(res.value);
  EXPECT_EQ((*res.value)[0], expect0);
  EXPECT_EQ((*res.value)[1], expect1);
}

TEST(AggregateBroadcast, CapacityNeverExceeded) {
  const NodeId n = 200;
  Network net = make(n);  // strict_send on: would abort on violation
  Overlay topo(OverlayKind::kButterfly, n);
  std::vector<std::optional<Val>> inputs(n, Val{1, 0});
  BarrierWorkspace ws;
  aggregate_and_broadcast(topo, net, ws, inputs, agg::sum);
  EXPECT_LE(net.stats().max_send_load, net.cap());
  EXPECT_LE(net.stats().max_recv_load, net.cap());
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}

TEST(AggregateBroadcast, OneWorkspaceAcrossOverlaysAndSizes) {
  // One workspace carried across overlays, sizes and both entry points must
  // give every call exactly what a fresh workspace gives it: the cached
  // merge and broadcast schedules and the column scratch follow the overlay
  // of each call.
  struct Call {
    OverlayKind kind;
    NodeId n;
    bool barrier;
  };
  const Call calls[] = {{OverlayKind::kButterfly, 200, false},
                        {OverlayKind::kAugmentedCube, 200, false},
                        {OverlayKind::kRadix4Butterfly, 100, false},
                        {OverlayKind::kHypercube, 150, true},
                        {OverlayKind::kButterfly, 200, false}};
  auto run = [](const Call& call, BarrierWorkspace& ws) {
    Network net(NetConfig{.n = call.n, .capacity_factor = 16, .seed = 4});
    auto topo = make_overlay(call.kind, call.n);
    std::optional<Val> value;
    uint64_t rounds;
    if (call.barrier) {
      rounds = sync_barrier(*topo, net, ws);
    } else {
      std::vector<std::optional<Val>> inputs(call.n);
      for (NodeId u = 5; u < call.n; u += 11) inputs[u] = Val{u, 1};
      AbResult res = aggregate_and_broadcast(*topo, net, ws, inputs, agg::sum);
      value = res.value;
      rounds = res.rounds;
    }
    return std::make_tuple(value, rounds, net.stats().messages_sent);
  };
  BarrierWorkspace shared;
  for (const Call& call : calls) {
    BarrierWorkspace fresh;
    const auto expect = run(call, fresh);
    EXPECT_EQ(run(call, shared), expect)
        << overlay_name(call.kind) << " n=" << call.n << " barrier=" << call.barrier;
    if (!call.barrier) {
      uint64_t sum = 0;
      for (NodeId u = 5; u < call.n; u += 11) sum += u;
      ASSERT_TRUE(std::get<0>(expect).has_value());
      EXPECT_EQ((*std::get<0>(expect))[0], sum);
    }
  }
}
