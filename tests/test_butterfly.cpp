// Tests for the butterfly overlay (Overlay built with OverlayKind::kButterfly)
// and the combining random-rank router on it (overlay-generic router
// behaviour on the other overlays is covered by tests/test_overlay.cpp).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/hash.hpp"
#include "net/network.hpp"
#include "overlay/overlay.hpp"
#include "overlay/router.hpp"

using namespace ncc;

TEST(Butterfly, DimensionsAndHosting) {
  Overlay t(OverlayKind::kButterfly, 100);  // d = 6, 64 columns
  EXPECT_EQ(t.dims(), 6u);
  EXPECT_EQ(t.columns(), 64u);
  EXPECT_EQ(t.levels(), 7u);
  EXPECT_TRUE(t.emulates(63));
  EXPECT_FALSE(t.emulates(64));
  EXPECT_EQ(t.attach_column(64), 0u);
  EXPECT_EQ(t.attach_column(99), 35u);
  EXPECT_EQ(t.node_count(), 7u * 64u);
  EXPECT_EQ(t.overlay_node_count(), t.node_count());  // levels are physical
}

TEST(Butterfly, EdgesAreInverses) {
  Overlay t(OverlayKind::kButterfly, 64);
  for (uint32_t level = 0; level + 1 < t.levels(); ++level) {
    for (NodeId c = 0; c < t.columns(); ++c) {
      for (uint32_t e = 0; e < t.down_degree(level); ++e) {
        NodeId down = t.down_column(level, c, e);
        EXPECT_EQ(t.up_column(level + 1, down, e), c);
      }
    }
  }
}

TEST(Butterfly, GreedyRouteFixesOneBitPerLevel) {
  Overlay t(OverlayKind::kButterfly, 64);
  for (NodeId src = 0; src < t.columns(); src += 7) {
    for (NodeId dst = 0; dst < t.columns(); dst += 5) {
      NodeId cur = src;
      for (uint32_t level = 0; level + 1 < t.levels(); ++level) {
        uint32_t e = t.route_edge(level, cur, dst);
        cur = t.down_column(level, cur, e);
      }
      EXPECT_EQ(cur, dst);
    }
  }
}

namespace {

struct RouterFixture {
  NodeId n;
  Network net;
  Overlay topo;
  RouterWorkspace ws;
  KWiseHash hdest;
  KWiseHash hrank;

  explicit RouterFixture(NodeId n_, uint64_t seed = 3)
      : n(n_),
        net(NetConfig{.n = n_, .capacity_factor = 8, .strict_send = true,
                      .seed = seed}),
        topo(OverlayKind::kButterfly, n_),
        hdest(4, Rng(seed * 31)),
        hrank(4, Rng(seed * 37)) {}

  std::function<NodeId(uint64_t)> dest() {
    return [this](uint64_t g) {
      return static_cast<NodeId>(hdest.to_range(g, topo.columns()));
    };
  }
  std::function<uint64_t(uint64_t)> rank() {
    return [this](uint64_t g) { return hrank(g); };
  }
};

}  // namespace

TEST(RouteDown, CombinesGroupSums) {
  RouterFixture f(64);
  Rng rng(5);
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  std::map<uint64_t, uint64_t> expect;
  for (int i = 0; i < 500; ++i) {
    uint64_t g = rng.next_below(20);
    NodeId c = static_cast<NodeId>(rng.next_below(f.topo.columns()));
    at_col[c].push_back({g, Val{1, 0}});
    ++expect[g];
  }
  auto res = route_down(f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum);
  ASSERT_EQ(res.root_values.size(), expect.size());
  for (auto& [g, cnt] : expect) {
    ASSERT_TRUE(res.root_values.count(g));
    EXPECT_EQ(res.root_values.at(g)[0], cnt) << "group " << g;
    EXPECT_EQ(res.root_col.at(g), f.dest()(g));
  }
  EXPECT_EQ(f.net.stats().messages_dropped, 0u);
  EXPECT_GT(res.stats.combines, 0u);
  EXPECT_EQ(res.stats.token_resends, 0u);  // heartbeat idle on reliable nets
  // Token-based termination adds only O(log n) beyond the routing time.
  EXPECT_LE(res.stats.rounds, 500 / 64 + 16 * f.topo.dims() + 16);
}

TEST(RouteDown, EmptyInputStillDrainsTokens) {
  RouterFixture f(32);
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  auto res = route_down(f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum);
  EXPECT_TRUE(res.root_values.empty());
  EXPECT_GE(res.stats.rounds, f.topo.dims());  // tokens traverse all levels
}

TEST(RouteDown, CongestionTracksGroupsPerNode) {
  RouterFixture f(64);
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  // A single group: congestion must be exactly 1 on the shared path.
  for (NodeId c = 0; c < f.topo.columns(); ++c) at_col[c].push_back({7, Val{1, 0}});
  auto res = route_down(f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum);
  EXPECT_EQ(res.stats.congestion, 1u);
  EXPECT_EQ(res.root_values.at(7)[0], f.topo.columns());
}

TEST(RouteUpOverRecordedTrees, DeliversToAllLeaves) {
  RouterFixture f(64);
  Rng rng(9);
  MulticastTrees trees;
  trees.leaf_members.assign(f.topo.columns(), {});
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  // Two groups with leaves scattered over columns.
  std::map<uint64_t, std::vector<NodeId>> leaves;
  for (uint64_t g : {100ull, 200ull}) {
    for (int i = 0; i < 20; ++i) {
      NodeId c = static_cast<NodeId>(rng.next_below(f.topo.columns()));
      at_col[c].push_back({g, Val{0, 0}});
      leaves[g].push_back(c);
    }
  }
  route_down(f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum, &trees);

  FlatMap<Val> payloads;
  payloads.emplace(100, Val{111, 0});
  payloads.emplace(200, Val{222, 0});
  auto up = route_up(f.topo, f.net, f.ws, trees, payloads, f.rank());
  // Every leaf column that injected a packet of group g receives g's payload.
  for (auto& [g, cols] : leaves) {
    std::set<NodeId> expect_cols(cols.begin(), cols.end());
    std::set<NodeId> got;
    for (NodeId c = 0; c < f.topo.columns(); ++c)
      for (const AggPacket& p : up.at_col[c])
        if (p.group == g) got.insert(c);
    EXPECT_EQ(got, expect_cols) << "group " << g;
  }
  EXPECT_EQ(f.net.stats().messages_dropped, 0u);
}

TEST(RouteDown, HeavyLoadStaysWithinLinearRounds) {
  RouterFixture f(128);
  Rng rng(13);
  const uint64_t total = 16 * 128;  // L = 16n
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  for (uint64_t i = 0; i < total; ++i) {
    at_col[rng.next_below(f.topo.columns())].push_back(
        {rng.next_below(256), Val{1, 0}});
  }
  auto res = route_down(f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum);
  uint64_t sum = 0;
  res.root_values.for_each([&](uint64_t, const Val& v) { sum += v[0]; });
  EXPECT_EQ(sum, total);
  // Theorem B.2-ish: O(C + D log d + log n) with C = O(L/n + log n).
  EXPECT_LE(res.stats.rounds, 8 * (total / 128 + 4 * f.topo.dims()));
  EXPECT_EQ(f.net.stats().messages_dropped, 0u);
}

TEST(RouteDown, DeterministicAcrossRuns) {
  auto run = [] {
    RouterFixture f(64, 11);
    Rng rng(17);
    std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
    for (int i = 0; i < 300; ++i)
      at_col[rng.next_below(64)].push_back({rng.next_below(30), Val{1, 0}});
    auto res =
        route_down(f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum);
    return std::make_pair(res.stats.rounds, f.net.stats().messages_sent);
  };
  EXPECT_EQ(run(), run());
}
