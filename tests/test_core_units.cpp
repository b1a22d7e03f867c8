// Focused unit tests for the Section 5 algorithms and MST on structured
// graphs with known answers, plus parameter edge cases.
#include <gtest/gtest.h>

#include <string>

#include "baselines/sequential.hpp"
#include "core/bfs.hpp"
#include "core/broadcast_trees.hpp"
#include "core/coloring.hpp"
#include "core/matching.hpp"
#include "core/mis.hpp"
#include "core/mst.hpp"
#include "core/orientation_algo.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

using namespace ncc;

namespace {

struct Ctx {
  Network net;
  Shared shared;
  OrientationRunResult orient;
  BroadcastTrees bt;

  Ctx(const Graph& g, uint64_t seed)
      : net(NetConfig{.n = g.n(), .capacity_factor = 8, .strict_send = true,
                      .seed = seed}),
        shared(g.n(), seed),
        orient(run_orientation(shared, net, g)),
        bt(build_broadcast_trees(shared, net, g, orient.orientation, seed)) {}
};

}  // namespace

TEST(BfsUnit, NonZeroSource) {
  Graph g = grid_graph(5, 5);
  Ctx c(g, 3);
  for (NodeId src : {NodeId{12}, NodeId{24}, NodeId{4}}) {
    auto res = run_bfs(c.shared, c.net, g, c.bt, src, src);
    auto expect = bfs_distances(g, src);
    for (NodeId u = 0; u < g.n(); ++u) EXPECT_EQ(res.dist[u], expect[u]);
    EXPECT_EQ(res.parent[src], src);
  }
}

TEST(BfsUnit, StarIsTwoPhases) {
  Graph g = star_graph(50);
  Ctx c(g, 5);
  auto res = run_bfs(c.shared, c.net, g, c.bt, 1, 5);  // a leaf
  EXPECT_EQ(res.dist[1], 0u);
  EXPECT_EQ(res.dist[0], 1u);
  for (NodeId u = 2; u < 50; ++u) {
    EXPECT_EQ(res.dist[u], 2u);
    EXPECT_EQ(res.parent[u], 0u);
  }
}

TEST(MisUnit, CompleteGraphPicksExactlyOne) {
  Graph g = complete_graph(20);
  Ctx c(g, 7);
  auto res = run_mis(c.shared, c.net, g, c.bt, 7);
  uint32_t size = 0;
  for (bool b : res.in_mis) size += b;
  EXPECT_EQ(size, 1u);
}

TEST(MisUnit, EmptyGraphPicksEveryone) {
  Graph g(16, {});
  Ctx c(g, 9);
  auto res = run_mis(c.shared, c.net, g, c.bt, 9);
  for (NodeId u = 0; u < 16; ++u) EXPECT_TRUE(res.in_mis[u]);
  EXPECT_EQ(res.phases, 1u);
}

TEST(MisUnit, IndependentOfIsolatedNodes) {
  std::vector<Edge> edges{Edge(0, 1)};
  Graph g(5, std::move(edges));
  Ctx c(g, 11);
  auto res = run_mis(c.shared, c.net, g, c.bt, 11);
  EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis));
  EXPECT_TRUE(res.in_mis[2] && res.in_mis[3] && res.in_mis[4]);
}

TEST(MatchingUnit, CompleteBipartiteIsPerfect) {
  // K_{8,8}: maximal matching must match everyone (any maximal matching in
  // K_{n,n} is perfect... no — maximal need not be perfect in general, but
  // in K_{n,n} any maximal matching saturates one side fully paired: an
  // unmatched left + unmatched right would form an addable edge).
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 8; ++u)
    for (NodeId v = 8; v < 16; ++v) edges.emplace_back(u, v);
  Graph g(16, std::move(edges));
  Ctx c(g, 13);
  auto res = run_matching(c.shared, c.net, g, c.bt, 13);
  EXPECT_TRUE(is_maximal_matching(g, res.mate));
  for (NodeId u = 0; u < 16; ++u) EXPECT_NE(res.mate[u], kUnmatched) << u;
}

TEST(MatchingUnit, TriangleMatchesOnePair) {
  Graph g(3, {Edge(0, 1), Edge(1, 2), Edge(0, 2)});
  Ctx c(g, 15);
  auto res = run_matching(c.shared, c.net, g, c.bt, 15);
  EXPECT_TRUE(is_maximal_matching(g, res.mate));
  uint32_t matched = 0;
  for (NodeId m : res.mate) matched += (m != kUnmatched);
  EXPECT_EQ(matched, 2u);
}

TEST(MatchingUnit, NoEdgesNoMatching) {
  Graph g(10, {});
  Ctx c(g, 17);
  auto res = run_matching(c.shared, c.net, g, c.bt, 17);
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(res.mate[u], kUnmatched);
}

TEST(ColoringUnit, CompleteGraphNeedsDistinctColors) {
  Graph g = complete_graph(12);
  Network net(NetConfig{.n = 12, .capacity_factor = 8, .strict_send = true, .seed = 19});
  Shared shared(12, 19);
  auto orient = run_orientation(shared, net, g);
  auto col = run_coloring(shared, net, g, orient, {}, 19);
  ASSERT_TRUE(is_proper_coloring(g, col.color));
  std::set<uint32_t> used(col.color.begin(), col.color.end());
  EXPECT_EQ(used.size(), 12u);
}

TEST(ColoringUnit, PathUsesFewColors) {
  Graph g = path_graph(40);
  Network net(NetConfig{.n = 40, .capacity_factor = 8, .strict_send = true, .seed = 21});
  Shared shared(40, 21);
  auto orient = run_orientation(shared, net, g);
  auto col = run_coloring(shared, net, g, orient, {}, 21);
  EXPECT_TRUE(is_proper_coloring(g, col.color));
  // a_hat <= d* <= 4 for a path, palette 2(1+eps)a_hat <= 12.
  EXPECT_LE(col.palette_size, 12u);
}

TEST(ColoringUnit, TightPaletteStillProper) {
  Rng rng(23);
  Graph g = random_forest_union(64, 3, rng);
  Network net(NetConfig{.n = 64, .capacity_factor = 8, .strict_send = true, .seed = 23});
  Shared shared(64, 23);
  auto orient = run_orientation(shared, net, g);
  ColoringParams p;
  p.eps = 0.05;  // barely above the 2 a_hat floor
  auto col = run_coloring(shared, net, g, orient, p, 23);
  EXPECT_TRUE(is_proper_coloring(g, col.color));
}

TEST(MstUnit, EqualWeightsStillSpanning) {
  Rng rng(25);
  Graph g = gnm_graph(40, 120, rng);  // all weights 1 -> massive ties
  Network net(NetConfig{.n = 40, .capacity_factor = 8, .strict_send = true, .seed = 25});
  Shared shared(40, 25);
  auto res = run_mst(shared, net, g, {}, 25);
  EXPECT_TRUE(is_spanning_forest(g, res.edges));
  EXPECT_EQ(res.total_weight, kruskal_msf(g).total_weight);
}

TEST(MstUnit, MaxAllowedWeights) {
  Rng rng(27);
  Graph g = with_random_weights(random_tree(32, rng), 1u << 20, rng);
  Network net(NetConfig{.n = 32, .capacity_factor = 8, .strict_send = true, .seed = 27});
  Shared shared(32, 27);
  auto res = run_mst(shared, net, g, {}, 27);
  // A tree's MST is the tree itself.
  EXPECT_EQ(res.edges.size(), 31u);
  EXPECT_EQ(res.total_weight, kruskal_msf(g).total_weight);
}

TEST(MstUnit, FinalLeadersAgreePerComponent) {
  Rng rng(29);
  Graph g = with_distinct_weights(gnm_graph(36, 90, rng), rng);
  Network net(NetConfig{.n = 36, .capacity_factor = 8, .strict_send = true, .seed = 29});
  Shared shared(36, 29);
  auto res = run_mst(shared, net, g, {}, 29);
  auto dist0 = bfs_distances(g, 0);
  for (NodeId u = 0; u < g.n(); ++u)
    for (NodeId v : g.neighbors(u)) EXPECT_EQ(res.leader[u], res.leader[v]);
  (void)dist0;
}

TEST(OrientationUnit, CycleGetsOutdegreeOneOrTwo) {
  Graph g = cycle_graph(33);
  Network net(NetConfig{.n = 33, .capacity_factor = 8, .strict_send = true, .seed = 31});
  Shared shared(33, 31);
  auto res = run_orientation(shared, net, g);
  EXPECT_TRUE(res.orientation.complete());
  EXPECT_LE(res.orientation.max_outdegree(), 2u);
}

TEST(OrientationUnit, EmptyAndSingleEdgeGraphs) {
  {
    Graph g(8, {});
    Network net(NetConfig{.n = 8, .capacity_factor = 8, .strict_send = true, .seed = 33});
    Shared shared(8, 33);
    auto res = run_orientation(shared, net, g);
    EXPECT_TRUE(res.orientation.complete());
    EXPECT_EQ(res.d_star, 0u);
  }
  {
    Graph g(8, {Edge(2, 5)});
    Network net(NetConfig{.n = 8, .capacity_factor = 8, .strict_send = true, .seed = 35});
    Shared shared(8, 35);
    auto res = run_orientation(shared, net, g);
    EXPECT_TRUE(res.orientation.complete());
    EXPECT_TRUE(res.orientation.directed_from(2, 5));  // id rule: 2 -> 5
  }
}

TEST(MstUnit, HigherSearchArityMatchesKruskal) {
  Rng rng(61);
  Graph g = with_random_weights(gnm_graph(48, 140, rng), 5000, rng);
  uint64_t kw = kruskal_msf(g).total_weight;
  uint64_t rounds_a2 = 0, rounds_a4 = 0;
  for (uint32_t arity : {2u, 3u, 4u, 8u}) {
    // Same seed and tag across arities: identical coin flips and phase
    // structure, so the round comparison isolates the search arity.
    Network net(NetConfig{.n = g.n(), .capacity_factor = 8, .strict_send = true,
                          .seed = 60});
    Shared shared(g.n(), 60);
    MstParams params;
    params.search_arity = arity;
    auto res = run_mst(shared, net, g, params, 5);
    EXPECT_EQ(res.total_weight, kw) << "arity " << arity;
    EXPECT_TRUE(is_spanning_forest(g, res.edges)) << "arity " << arity;
    if (arity == 2) rounds_a2 = res.rounds;
    if (arity == 4) rounds_a4 = res.rounds;
  }
  // Arity 4 halves the iteration count; rounds should drop noticeably.
  EXPECT_LT(rounds_a4, rounds_a2);
}

// Golden values pinning run_mst exactly: FindMin's sketch bits are node-local,
// so any change to how they are computed must leave every chosen edge, phase,
// round and message bit-identical. Covers tied and distinct weights and the
// packing regimes bits = trials (trials < 64/A) and bits = 64/A.
TEST(MstUnit, GoldenEdgesRoundsAndMessages) {
  struct Golden {
    bool distinct;
    uint32_t trials, arity;
    size_t edges;
    uint64_t digest;  // edges (u, v, w) and known_by, in output order
    uint32_t phases;
    uint64_t rounds, messages;
  };
  const Golden cases[] = {
      {false, 40, 2, 47, 8341039178926475960u, 14, 14654, 210168},
      {false, 8, 4, 47, 3627825888463844682u, 14, 9272, 132156},
      {false, 60, 3, 47, 8341039178926475960u, 14, 10858, 154153},
      {false, 16, 8, 47, 7059528943827011039u, 14, 6965, 97754},
      {true, 40, 2, 47, 5097731273154214495u, 14, 18338, 263248},
      {true, 8, 4, 47, 5097731273154214495u, 14, 10677, 152826},
      {true, 60, 3, 47, 5097731273154214495u, 14, 13059, 185630},
      {true, 16, 8, 47, 5097731273154214495u, 14, 8403, 119603},
  };
  Rng rng(71);
  const Graph base = gnm_graph(48, 150, rng);
  const Graph tied = with_random_weights(base, 6, rng);
  const Graph distinct = with_distinct_weights(base, rng);
  for (const Golden& c : cases) {
    const Graph& g = c.distinct ? distinct : tied;
    Network net(NetConfig{.n = g.n(), .capacity_factor = 8, .strict_send = true,
                          .seed = 72});
    Shared shared(g.n(), 72);
    MstParams params;
    params.trials = c.trials;
    params.search_arity = c.arity;
    SCOPED_TRACE(std::string(c.distinct ? "distinct" : "tied") + " trials " +
                 std::to_string(c.trials) + " arity " + std::to_string(c.arity));
    auto res = run_mst(shared, net, g, params, 73);
    uint64_t digest = 0;
    for (size_t i = 0; i < res.edges.size(); ++i) {
      const Edge& e = res.edges[i];
      digest = mix64(digest ^ arc_id(e.u, e.v));
      digest = mix64(digest ^ e.w);
      digest = mix64(digest ^ res.known_by[i]);
    }
    EXPECT_EQ(res.edges.size(), c.edges);
    EXPECT_EQ(digest, c.digest);
    EXPECT_EQ(res.phases, c.phases);
    EXPECT_EQ(res.rounds, c.rounds);
    EXPECT_EQ(net.stats().messages_sent, c.messages);
  }
}
