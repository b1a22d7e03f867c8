// Smoke tests for the communication primitives: end-to-end correctness of
// Aggregate-and-Broadcast, Aggregation, Multicast Tree Setup, Multicast and
// Multi-Aggregation on small networks.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bits.hpp"
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
  auto setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/0);
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
  auto setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/0);
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

// Barrier counts. Each primitive's rounds are the rounds of its phases plus
// k barriers of 2 * agg_steps + 2 rounds: a barrier follows only the phases
// whose length no node knows (route_down, route_up, and the batched injection
// when no bound l1_hat on the items per node is given), never one of known
// length (the random deliveries, the final round, an injection with a bound).
// The inputs give every sender at most log n items, so each handoff and
// unbounded injection takes one round; a bounded one takes
// max(1, ceil(l1_hat / log n)) rounds whatever the senders hold.
namespace {
uint64_t barrier_rounds(const Shared& shared) { return 2ull * shared.topo().agg_steps() + 2; }
}  // namespace

TEST(BarrierCount, AggregationHasTwo) {
  const NodeId n = 64;
  Network net = make_net(n);
  Shared shared(n, 42);
  AggregationProblem prob;
  prob.combine = agg::sum;
  prob.target = [](uint64_t g) { return static_cast<NodeId>(g % 64); };
  prob.ell2_hat = 13;  // ceil(13 / log n) = 3 delivery rounds
  for (NodeId u = 0; u < n; ++u) prob.items.push_back({u, u % 3, Val{1, 0}});
  auto res = run_aggregation(shared, net, prob);
  // injection + route_down + delivery + 2 barriers
  EXPECT_EQ(res.rounds, 1 + res.route.rounds + 3 + 2 * barrier_rounds(shared));
  EXPECT_EQ(net.rounds(), res.rounds);
}

TEST(BarrierCount, AggregationWithItemBoundHasOne) {
  const NodeId n = 64;
  Network net = make_net(n);
  Shared shared(n, 42);
  AggregationProblem prob;
  prob.combine = agg::sum;
  prob.target = [](uint64_t g) { return static_cast<NodeId>(g % 64); };
  prob.ell1_hat = 1;
  prob.ell2_hat = 13;
  for (NodeId u = 0; u < n; ++u) prob.items.push_back({u, u % 3, Val{1, 0}});
  auto res = run_aggregation(shared, net, prob);
  // injection (1 round) + route_down + delivery + 1 barrier
  EXPECT_EQ(res.rounds, 1 + res.route.rounds + 3 + barrier_rounds(shared));
  EXPECT_EQ(net.rounds(), res.rounds);
  ASSERT_EQ(res.at_target.size(), 3u);
  for (uint64_t g = 0; g < 3; ++g) EXPECT_EQ(res.at_target.at(g)[0], g == 0 ? 22u : 21u);
}

TEST(BarrierCount, ItemBoundFixesTheInjectionLength) {
  const NodeId n = 64;
  Network net = make_net(n);
  Shared shared(n, 42);
  AggregationProblem prob;
  prob.combine = agg::sum;
  prob.target = [](uint64_t g) { return static_cast<NodeId>(g % 64); };
  prob.ell1_hat = 13;  // ceil(13 / log n) = 3 injection rounds
  prob.ell2_hat = 1;
  // Every node holds a single item, yet the injection lasts the bound's
  // three rounds: that length, not the items held, is what every node knows.
  for (NodeId u = 0; u < n; ++u) prob.items.push_back({u, u % 3, Val{1, 0}});
  auto res = run_aggregation(shared, net, prob);
  // injection + route_down + delivery (1 round) + 1 barrier
  EXPECT_EQ(res.rounds, 3 + res.route.rounds + 1 + barrier_rounds(shared));
  EXPECT_EQ(net.rounds(), res.rounds);
}

TEST(BarrierCountDeathTest, SenderOverItsItemBoundAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto over = [] {
    const NodeId n = 64;
    Network net = make_net(n);
    Shared shared(n, 42);
    AggregationProblem prob;
    prob.combine = agg::sum;
    prob.target = [](uint64_t g) { return static_cast<NodeId>(g % 64); };
    prob.ell1_hat = 1;
    prob.items.push_back({5, 1, Val{1, 0}});
    prob.items.push_back({5, 2, Val{1, 0}});  // node 5 holds two items
    run_aggregation(shared, net, prob);
  };
  EXPECT_DEATH(over(), "a sender holds more items than its bound");
}

TEST(BarrierCount, MulticastSetupWithItemBoundHasOne) {
  const NodeId n = 64;
  Network net = make_net(n);
  Shared shared(n, 99);
  std::vector<MulticastMembership> members;
  for (NodeId u = 10; u < 40; ++u) members.push_back({u, 1 + u % 2});
  auto setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/1);
  // injection + route_down + 1 barrier
  EXPECT_EQ(setup.rounds, 1 + setup.route.rounds + barrier_rounds(shared));
  EXPECT_EQ(net.rounds(), setup.rounds);
}

TEST(BarrierCount, MulticastSetupHasTwoAndMulticastOne) {
  const NodeId n = 64;
  Network net = make_net(n);
  Shared shared(n, 99);
  std::vector<MulticastMembership> members;
  for (NodeId u = 10; u < 40; ++u) members.push_back({u, 1 + u % 2});
  auto setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/0);
  // injection + route_down + 2 barriers
  EXPECT_EQ(setup.rounds, 1 + setup.route.rounds + 2 * barrier_rounds(shared));

  std::vector<MulticastSend> sends = {{1, 3, Val{111, 0}}, {2, 41, Val{222, 0}}};
  const uint64_t before = net.rounds();
  auto mc = run_multicast(shared, net, setup.trees, sends, /*ell_hat=*/7);
  // handoff + route_up + leaf delivery (ceil(7 / log n) = 2) + 1 barrier
  EXPECT_EQ(mc.rounds, 1 + mc.route.rounds + 2 + barrier_rounds(shared));
  EXPECT_EQ(net.rounds() - before, mc.rounds);
}

TEST(BarrierCount, MultiAggregationHasThree) {
  const NodeId n = 64;
  Network net = make_net(n);
  Shared shared(n, 5);
  std::vector<MulticastMembership> members;
  for (NodeId u = 4; u < n; ++u) members.push_back({u, 100 + (u % 4)});
  auto setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/0);
  std::vector<MulticastSend> sends;
  for (NodeId s = 0; s < 4; ++s) sends.push_back({100 + s, s, Val{s, 0}});
  // Every group has a source, so every leaf record redistributes one packet
  // from its column's host: ceil(max records per column / log n) rounds.
  size_t most = 0;
  for (const auto& leaves : setup.trees.leaf_members) most = std::max(most, leaves.size());
  const uint64_t redistribute = (most + cap_log(n) - 1) / cap_log(n);
  const uint64_t before = net.rounds();
  auto ma = run_multi_aggregation(shared, net, setup.trees, sends, agg::min_by_first);
  // handoff + route_up + redistribution + route_down + final round + 3 barriers
  EXPECT_EQ(ma.rounds, 1 + ma.up_route.rounds + redistribute + ma.down_route.rounds + 1 +
                           3 * barrier_rounds(shared));
  EXPECT_EQ(net.rounds() - before, ma.rounds);
}
