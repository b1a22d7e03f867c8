// Tests for the Aggregate-and-Broadcast primitive (Theorem 2.2).
#include <gtest/gtest.h>

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
  auto res = aggregate_and_broadcast(topo, net, inputs, agg::max_by_first);
  ASSERT_TRUE(res.value);
  EXPECT_EQ((*res.value)[0], 99u);
  EXPECT_EQ((*res.value)[1], 21u);  // second word carries the argmax
}

TEST(AggregateBroadcast, SingleInput) {
  Network net = make(17);
  Overlay topo(OverlayKind::kButterfly, 17);
  std::vector<std::optional<Val>> inputs(17);
  inputs[16] = Val{5, 0};  // a non-emulating node (16 = 2^4)
  auto res = aggregate_and_broadcast(topo, net, inputs, agg::sum);
  ASSERT_TRUE(res.value);
  EXPECT_EQ((*res.value)[0], 5u);
}

TEST(AggregateBroadcast, MinNodeId) {
  const NodeId n = 100;
  Network net = make(n);
  Overlay topo(OverlayKind::kButterfly, n);
  std::vector<std::optional<Val>> inputs(n);
  for (NodeId u = 30; u < 70; ++u) inputs[u] = Val{u, 0};
  auto res = aggregate_and_broadcast(topo, net, inputs, agg::min_by_first);
  ASSERT_TRUE(res.value);
  EXPECT_EQ((*res.value)[0], 30u);
}

TEST(AggregateBroadcast, RoundsAreLogarithmic) {
  for (NodeId n : {8u, 64u, 512u, 4096u}) {
    Network net = make(n);
    Overlay topo(OverlayKind::kButterfly, n);
    std::vector<std::optional<Val>> inputs(n, Val{1, 0});
    auto res = aggregate_and_broadcast(topo, net, inputs, agg::sum);
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
  auto res = aggregate_and_broadcast(topo, net, inputs, agg::xor_xor);
  ASSERT_TRUE(res.value);
  EXPECT_EQ((*res.value)[0], expect0);
  EXPECT_EQ((*res.value)[1], expect1);
}

TEST(AggregateBroadcast, CapacityNeverExceeded) {
  const NodeId n = 200;
  Network net = make(n);  // strict_send on: would abort on violation
  Overlay topo(OverlayKind::kButterfly, n);
  std::vector<std::optional<Val>> inputs(n, Val{1, 0});
  aggregate_and_broadcast(topo, net, inputs, agg::sum);
  EXPECT_LE(net.stats().max_send_load, net.cap());
  EXPECT_LE(net.stats().max_recv_load, net.cap());
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}
