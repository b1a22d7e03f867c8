// Tests for the paper-remarked extensions (multi-source Multicast and
// Multi-Aggregation), the exchange runner's schedules, the
// connected-components corollary, and the
// orientation fallback paths (U_high broadcast / direct resolution) that the
// default parameters never exercise.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/components.hpp"
#include "core/orientation_algo.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "primitives/exchange.hpp"
#include "primitives/multi_aggregation.hpp"
#include "primitives/multicast.hpp"

using namespace ncc;

namespace {
Network make(NodeId n, uint64_t seed = 1) {
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return Network(cfg);
}
}  // namespace

TEST(MultiSourceMulticast, OneNodeSourcesManyGroups) {
  const NodeId n = 64;
  Network net = make(n, 2);
  Shared shared(n, 2);
  // Node 0 sources 40 groups (> log n: forces several handoff batches).
  std::vector<MulticastMembership> members;
  std::vector<MulticastSend> sends;
  for (uint64_t gi = 0; gi < 40; ++gi) {
    uint64_t group = 900 + gi;
    members.push_back({static_cast<NodeId>(1 + gi % (n - 1)), group});
    sends.push_back({group, 0, Val{gi, 0}});
  }
  auto setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/0, 2);
  auto mc = run_multicast(shared, net, setup.trees, sends, 1, 3);
  for (uint64_t gi = 0; gi < 40; ++gi) {
    NodeId m = static_cast<NodeId>(1 + gi % (n - 1));
    bool got = false;
    for (const AggPacket& p : mc.received[m])
      if (p.group == 900 + gi && p.val[0] == gi) got = true;
    EXPECT_TRUE(got) << gi;
  }
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}

TEST(MulticastSetupDeathTest, InjectorOutOfRangeAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto bad_injector = [] {
    const NodeId n = 32;
    Network net = make(n, 3);
    Shared shared(n, 3);
    std::vector<MulticastMembership> members{{1, 10}, {2, 11, /*injector=*/n}};
    setup_multicast_trees(shared, net, members, /*ell1_hat=*/0, 1);
  };
  EXPECT_DEATH(bad_injector(), "exchange sender out of range");
}

namespace {
// Two root values at column 9: group (5 << 8) names node 5, group (200 << 8)
// names node 200, which does not exist at n = 64.
DownResult two_roots() {
  DownResult down;
  for (uint64_t g : {uint64_t{5} << 8, uint64_t{200} << 8}) {
    down.root_values.emplace(g, Val{g, 1});
    down.root_col.emplace(g, 9);
  }
  return down;
}
const auto group_target = [](uint64_t g) { return static_cast<NodeId>(g >> 8); };
}  // namespace

TEST(ExchangeRunner, RootDeliveriesDropAndCountGroupsThatNameNoNode) {
  // Under byzantine corruption a rewritten group id can reach a root; its
  // target is then not a node: counted as misrouted and dropped.
  const Overlay topo(OverlayKind::kButterfly, 64);
  Network net = make(64, 4);
  FaultHooks hooks;
  hooks.corrupt = [](Message&, uint64_t, uint64_t) { return false; };
  net.install_fault_hooks(std::move(hooks));
  DownResult down = two_roots();
  std::vector<ExchangeEntry> entries = root_deliveries(topo, net, down, group_target);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].group, uint64_t{5} << 8);
  EXPECT_EQ(entries[0].from, topo.host(9));
  EXPECT_EQ(entries[0].to, 5u);
  EXPECT_EQ(down.stats.misrouted, 1u);
}

TEST(RootDeliveriesDeathTest, GroupThatNamesNoNodeAbortsOnReliableNetwork) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto reliable = [] {
    const Overlay topo(OverlayKind::kButterfly, 64);
    Network net = make(64, 4);
    DownResult down = two_roots();
    root_deliveries(topo, net, down, group_target);
  };
  EXPECT_DEATH(reliable(), "root value for a group that names no node");
}

TEST(ExchangeRunner, BatchesCeilLogNItemsPerSenderPerRound) {
  // n = 64: ceil(log n) = 6 items per sender per round.
  const NodeId n = 64;
  for (auto [items, rounds] : {std::pair<uint32_t, uint32_t>{0, 0}, {6, 1}, {7, 2}, {13, 3}}) {
    Network net = make(n, 4);
    auto entry = [](size_t i) {
      return ExchangeEntry{5, static_cast<NodeId>(i % 2 ? 10 + i : 5), 100 + i, Val{i, 0}};
    };
    ExchangeRounds schedule =
        batched_rounds(n, items, [](size_t) { return NodeId{5}; }, 0, 0, entry);
    ASSERT_EQ(schedule.size(), rounds) << items;
    std::vector<uint64_t> landed;
    run_exchange(net, schedule, 0x77, 3, [&](NodeId to, uint64_t group, const Val& v) {
      EXPECT_EQ(group, 100 + v[0]);
      EXPECT_EQ(to, v[0] % 2 == 0 ? 5 : 10 + v[0]);
      landed.push_back(group);
    });
    EXPECT_EQ(net.rounds(), rounds) << items;
    EXPECT_LE(net.stats().max_send_load, 6u) << items;
    // Per round, the self entries (even i) land in the send pass, then the
    // arrivals in ascending receiver id (here ascending i).
    std::vector<uint64_t> expect;
    for (uint32_t r = 0; r < rounds; ++r)
      for (uint32_t parity : {0u, 1u})
        for (uint32_t i = 6 * r; i < std::min(items, 6 * r + 6); ++i)
          if (i % 2 == parity) expect.push_back(100 + i);
    EXPECT_EQ(landed, expect) << items;
  }
}

TEST(ExchangeRunner, MulticastHandoffTakesOneRoundPerBatch) {
  // One node sources k groups: ceil(k / 6) handoff rounds at n = 64, at least
  // one even when nobody sources.
  const NodeId n = 64;
  for (auto [k, rounds] : {std::pair<uint32_t, uint32_t>{0, 1}, {1, 1}, {6, 1}, {7, 2}}) {
    Network net = make(n, 8);
    Shared shared(n, 8);
    std::vector<MulticastMembership> members;
    std::vector<MulticastSend> sends;
    for (uint32_t gi = 0; gi < 7; ++gi) members.push_back({1 + gi, 700 + gi});
    for (uint32_t gi = 0; gi < k; ++gi) sends.push_back({700 + gi, 3, Val{gi, 0}});
    auto setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/0, 8);
    Network handoff(net.config());  // count the handoff alone
    FlatMap<Val> payloads =
        hand_off_to_roots(shared.topo(), handoff, setup.trees, sends, 0x77);
    EXPECT_EQ(handoff.rounds(), rounds) << k;
    EXPECT_LE(handoff.stats().max_send_load, 6u) << k;
    EXPECT_LE(handoff.stats().messages_sent, k) << k;
    EXPECT_EQ(payloads.size(), k);
    for (uint32_t gi = 0; gi < k; ++gi) {
      ASSERT_NE(payloads.find(700 + gi), nullptr) << gi;
      EXPECT_EQ((*payloads.find(700 + gi))[0], gi);
    }
  }
}

TEST(MultiSourceMultiAggregation, AggregatesAcrossGroupsOfOneSource) {
  const NodeId n = 64;
  Network net = make(n, 5);
  Shared shared(n, 5);
  // Node 7 sources 3 groups with overlapping members; members must receive
  // the min payload over the groups they belong to.
  std::vector<MulticastMembership> members;
  std::vector<MulticastSend> sends;
  std::map<NodeId, uint64_t> expect;
  for (uint64_t gi = 0; gi < 3; ++gi) {
    uint64_t group = 500 + gi;
    uint64_t payload = 100 - gi * 10;
    for (NodeId m = 20; m < 30 + 5 * gi; ++m) {
      members.push_back({m, group});
      auto it = expect.find(m);
      if (it == expect.end())
        expect[m] = payload;
      else
        it->second = std::min(it->second, payload);
    }
    sends.push_back({group, 7, Val{payload, 0}});
  }
  auto setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/0, 5);
  auto ma = run_multi_aggregation(shared, net, setup.trees, sends, agg::min_by_first, 6);
  for (auto& [m, v] : expect) {
    ASSERT_TRUE(ma.at_node[m].has_value()) << m;
    EXPECT_EQ((*ma.at_node[m])[0], v) << m;
  }
}

TEST(Components, CountsAndLabelsMatchGroundTruth) {
  // Path + cycle + isolated nodes.
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);
  for (NodeId i = 10; i < 19; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(19, 10);
  Graph g(24, std::move(edges));
  Network net = make(g.n(), 7);
  Shared shared(g.n(), 7);
  auto res = run_components(shared, net, g);
  EXPECT_EQ(res.count, component_count(g));
  // Labels constant within components, distinct across.
  for (const Edge& e : g.edges()) EXPECT_EQ(res.leader[e.u], res.leader[e.v]);
  EXPECT_NE(res.leader[0], res.leader[10]);
  EXPECT_NE(res.leader[20], res.leader[21]);
  // Forest is a spanning forest: n - #components edges.
  EXPECT_EQ(res.forest.size(), g.n() - res.count);
}

TEST(Components, SingleComponent) {
  Rng rng(9);
  Graph g = connectify(gnm_graph(50, 80, rng), rng);
  Network net = make(g.n(), 11);
  Shared shared(g.n(), 11);
  auto res = run_components(shared, net, g);
  EXPECT_EQ(res.count, 1u);
  EXPECT_EQ(res.forest.size(), 49u);
}

TEST(OrientationFallback, WeakParametersStillCorrect) {
  // c = 1 with no retries makes step-1 identification fail regularly and
  // routes the failures through the direct (U_high-style) resolution; the
  // orientation must still come out complete and O(a).
  Rng rng(13);
  Graph g = gnm_graph(96, 480, rng);  // denser: many red edges per node
  Network net = make(g.n(), 13);
  Shared shared(g.n(), 13);
  OrientationAlgoParams params;
  params.c = 1;
  params.max_retries = 0;
  auto res = run_orientation(shared, net, g, params);
  EXPECT_TRUE(res.orientation.complete());
  EXPECT_GT(res.unsuccessful_first, 0u);  // the weak parameters did fail
  uint32_t degen = degeneracy(g).degeneracy;
  EXPECT_LE(res.orientation.max_outdegree(), 4 * degen);
}

TEST(OrientationFallback, StarCenterViaDensePhase) {
  // In phase 2 of a star the center's d(u) - d_i(u) = n - 1 > n / log n, so
  // if it fails step 1 it must go through the U_high broadcast. With c = 1
  // failures are common; either way the run must finish correctly.
  Graph g = star_graph(256);
  Network net = make(g.n(), 17);
  Shared shared(g.n(), 17);
  OrientationAlgoParams params;
  params.c = 1;
  params.max_retries = 0;
  auto res = run_orientation(shared, net, g, params);
  EXPECT_TRUE(res.orientation.complete());
  EXPECT_EQ(res.orientation.outdegree(0), 0u);
}
