// Smoke tests for the communication primitives: end-to-end correctness of
// Aggregate-and-Broadcast, Aggregation, Multicast Tree Setup, Multicast and
// Multi-Aggregation on small networks.
#include <gtest/gtest.h>

#include "primitives/aggregate_broadcast.hpp"
#include "overlay/overlay.hpp"
#include "primitives/aggregation.hpp"
#include "primitives/multi_aggregation.hpp"
#include "primitives/multicast.hpp"

using namespace ncc;

namespace {

Network make_net(NodeId n, uint64_t seed = 7) {
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return Network(cfg);
}

}  // namespace

TEST(AggregateBroadcast, SumOfAllInputs) {
  const NodeId n = 37;  // deliberately not a power of two
  Network net = make_net(n);
  Overlay topo(OverlayKind::kButterfly, n);
  std::vector<std::optional<Val>> inputs(n);
  uint64_t expect = 0;
  for (NodeId u = 0; u < n; ++u) {
    inputs[u] = Val{u + 1ull, 0};
    expect += u + 1ull;
  }
  BarrierWorkspace ws;
  auto res = aggregate_and_broadcast(topo, net, ws, inputs, agg::sum);
  ASSERT_TRUE(res.value.has_value());
  EXPECT_EQ((*res.value)[0], expect);
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}

TEST(AggregateBroadcast, EmptyInputYieldsNothing) {
  Network net = make_net(16);
  Overlay topo(OverlayKind::kButterfly, 16);
  std::vector<std::optional<Val>> inputs(16);
  BarrierWorkspace ws;
  auto res = aggregate_and_broadcast(topo, net, ws, inputs, agg::sum);
  EXPECT_FALSE(res.value.has_value());
  // The schedule still runs every round; with no value none of them sends.
  EXPECT_EQ(res.rounds, 2ull * topo.agg_steps() + 2);
  EXPECT_EQ(net.stats().messages_sent, 0u);
}

TEST(Aggregation, GroupSumsReachTargets) {
  const NodeId n = 64;
  Network net = make_net(n);
  Shared shared(n, 42);
  AggregationProblem prob;
  prob.combine = agg::sum;
  prob.target = [](uint64_t g) { return static_cast<NodeId>(g % 64); };
  prob.ell2_hat = 4;
  // Three groups; every node contributes to group (u % 3).
  std::vector<uint64_t> expect(3, 0);
  for (NodeId u = 0; u < n; ++u) {
    uint64_t g = u % 3;
    prob.items.push_back({u, g, Val{u + 1ull, 1}});
    expect[g] += u + 1ull;
  }
  auto res = run_aggregation(shared, net, prob);
  ASSERT_EQ(res.at_target.size(), 3u);
  for (uint64_t g = 0; g < 3; ++g) {
    ASSERT_TRUE(res.at_target.count(g));
    EXPECT_EQ(res.at_target.at(g)[0], expect[g]);
  }
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}

TEST(MulticastAndTrees, PayloadReachesAllMembers) {
  const NodeId n = 50;
  Network net = make_net(n);
  Shared shared(n, 99);
  // Group 1: members 10..29, source 3. Group 2: members {5, 40}, source 41.
  std::vector<MulticastMembership> members;
  for (NodeId u = 10; u < 30; ++u) members.push_back({u, 1});
  members.push_back({5, 2});
  members.push_back({40, 2});
  auto setup = setup_multicast_trees(shared, net, members);
  EXPECT_GT(setup.trees.congestion, 0u);

  std::vector<MulticastSend> sends = {{1, 3, Val{111, 0}}, {2, 41, Val{222, 0}}};
  auto mc = run_multicast(shared, net, setup.trees, sends, /*ell_hat=*/1);
  for (NodeId u = 10; u < 30; ++u) {
    ASSERT_EQ(mc.received[u].size(), 1u) << "member " << u;
    EXPECT_EQ(mc.received[u][0].group, 1u);
    EXPECT_EQ(mc.received[u][0].val[0], 111u);
  }
  for (NodeId u : {NodeId{5}, NodeId{40}}) {
    ASSERT_EQ(mc.received[u].size(), 1u);
    EXPECT_EQ(mc.received[u][0].val[0], 222u);
  }
  EXPECT_TRUE(mc.received[0].empty());
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}

TEST(MultiAggregation, MinOverGroupPayloads) {
  const NodeId n = 40;
  Network net = make_net(n);
  Shared shared(n, 5);
  // Node u is a member of groups {100 + (u % 4)}; sources 0..3 multicast
  // payloads; each node should receive the min payload over its groups.
  std::vector<MulticastMembership> members;
  for (NodeId u = 4; u < n; ++u) {
    members.push_back({u, 100 + (u % 4)});
    members.push_back({u, 100 + ((u + 1) % 4)});
  }
  auto setup = setup_multicast_trees(shared, net, members);
  std::vector<MulticastSend> sends;
  for (NodeId s = 0; s < 4; ++s)
    sends.push_back({100 + s, s, Val{(s + 1) * 10ull, 0}});
  auto ma = run_multi_aggregation(shared, net, setup.trees, sends, agg::min_by_first);
  for (NodeId u = 4; u < n; ++u) {
    uint64_t g1 = u % 4, g2 = (u + 1) % 4;
    uint64_t expect = std::min((g1 + 1) * 10ull, (g2 + 1) * 10ull);
    ASSERT_TRUE(ma.at_node[u].has_value()) << "node " << u;
    EXPECT_EQ((*ma.at_node[u])[0], expect) << "node " << u;
  }
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}
