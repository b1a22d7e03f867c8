// Engine determinism: for a fixed seed, runs with and without an attached
// Engine must produce byte-identical algorithm outputs (BfsResult, MIS sets)
// and identical NetStats, on gnm and powerlaw graphs — an Engine only adds
// timing — and repeated runs must reproduce them.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "baselines/sequential.hpp"
#include "core/bfs.hpp"
#include "core/broadcast_trees.hpp"
#include "core/mis.hpp"
#include "core/orientation_algo.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

using namespace ncc;

namespace {

struct StatsTuple {
  uint64_t rounds, charged, sent, dropped;
  uint32_t max_send, max_recv;
  bool operator==(const StatsTuple& o) const {
    return rounds == o.rounds && charged == o.charged && sent == o.sent &&
           dropped == o.dropped && max_send == o.max_send && max_recv == o.max_recv;
  }
};

StatsTuple snap(const NetStats& st) {
  return {st.rounds, st.charged_rounds, st.messages_sent, st.messages_dropped,
          st.max_send_load, st.max_recv_load};
}

struct PipelineRun {
  Network net;
  std::optional<Engine> engine;
  Shared shared;
  OrientationRunResult orient;
  BroadcastTrees bt;

  PipelineRun(const PipelineRun&) = delete;  // engine holds Network&
  PipelineRun& operator=(const PipelineRun&) = delete;

  PipelineRun(const Graph& g, uint64_t seed, bool with_engine)
      : net(NetConfig{.n = g.n(), .capacity_factor = 8, .strict_send = true,
                      .seed = seed}),
        engine(with_engine ? std::optional<Engine>(std::in_place, net) : std::nullopt),
        shared(g.n(), seed),
        orient(run_orientation(shared, net, g)),
        bt(build_broadcast_trees(shared, net, g, orient.orientation, seed)) {}
};

Graph gnm_case(NodeId n) {
  Rng rng(77);
  return gnm_graph(n, 4ull * n, rng);
}

Graph powerlaw_case(NodeId n) {
  Rng rng(91);
  return power_law_graph(n, 2.5, 32, rng);
}

using BfsRun = std::tuple<std::vector<uint32_t>, std::vector<NodeId>, uint64_t, StatsTuple>;

BfsRun bfs_run(const Graph& g, bool engine) {
  PipelineRun p(g, 1234, engine);
  auto res = run_bfs(p.shared, p.net, g, p.bt, 0, 5);
  return {res.dist, res.parent, res.rounds, snap(p.net.stats())};
}

using MisRun = std::tuple<std::vector<bool>, uint32_t, uint64_t, StatsTuple>;

MisRun mis_run(const Graph& g, bool engine) {
  PipelineRun p(g, 4321, engine);
  auto res = run_mis(p.shared, p.net, g, p.bt, 9);
  return {res.in_mis, res.phases, res.rounds, snap(p.net.stats())};
}

}  // namespace

TEST(EngineDeterminism, BfsIdenticalOnGnm) {
  Graph g = gnm_case(192);
  BfsRun seq = bfs_run(g, false);
  EXPECT_EQ(seq, bfs_run(g, true));
  // And the answer is right: distances match the sequential baseline.
  auto expect = bfs_distances(g, 0);
  const auto& dist = std::get<0>(seq);
  for (NodeId u = 0; u < g.n(); ++u)
    EXPECT_EQ(dist[u] == UINT32_MAX ? kUnreachable : dist[u], expect[u]) << u;
}

TEST(EngineDeterminism, BfsIdenticalOnPowerlaw) {
  Graph g = powerlaw_case(192);
  EXPECT_EQ(bfs_run(g, false), bfs_run(g, true));
}

TEST(EngineDeterminism, MisIdenticalOnGnm) {
  Graph g = gnm_case(192);
  MisRun seq = mis_run(g, false);
  EXPECT_EQ(seq, mis_run(g, true));
  EXPECT_TRUE(is_maximal_independent_set(g, std::get<0>(seq)));
}

TEST(EngineDeterminism, MisIdenticalOnPowerlaw) {
  Graph g = powerlaw_case(192);
  MisRun one = mis_run(g, false);
  EXPECT_EQ(one, mis_run(g, true));
  EXPECT_TRUE(is_maximal_independent_set(g, std::get<0>(one)));
}

TEST(EngineDeterminism, RepeatedRunsAreStable) {
  // Same seed, fresh network: byte-identical again (no hidden dependence on
  // allocator state).
  Graph g = gnm_case(160);
  EXPECT_EQ(mis_run(g, true), mis_run(g, true));
  EXPECT_EQ(bfs_run(g, true), bfs_run(g, true));
}
