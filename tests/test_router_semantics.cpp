// Fine-grained semantics tests for the combining random-rank router: the
// contention rule (smaller rank wins, ties by group id), tree structural
// validity, the per-edge one-packet-per-round discipline, and the stall
// heartbeat that re-sends tokens lost to faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <tuple>

#include "engine/engine.hpp"
#include "overlay/overlay.hpp"
#include "overlay/router.hpp"
#include "net/network.hpp"

using namespace ncc;

namespace {

struct Fix {
  Network net;
  Overlay topo;
  RouterWorkspace ws;
  explicit Fix(NodeId n, uint64_t seed = 1)
      : net(NetConfig{.n = n, .capacity_factor = 8, .strict_send = true,
                      .seed = seed}),
        topo(OverlayKind::kButterfly, n) {}
};

}  // namespace

TEST(RouterSemantics, LowerRankWinsContention) {
  // Two groups from the same column to the same destination: the lower-rank
  // group's packet must arrive strictly earlier when both contend for the
  // same path.
  Fix f(64);
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  // Both groups inject many packets at the same column: same path, full
  // contention.
  for (int i = 0; i < 8; ++i) {
    at_col[5].push_back({1, Val{1, 0}});
    at_col[9].push_back({2, Val{1, 0}});
  }
  auto dest = [](uint64_t) { return NodeId{42}; };
  auto rank = [](uint64_t g) { return g; };  // group 1 beats group 2
  auto res = route_down(f.topo, f.net, f.ws, std::move(at_col), dest, rank, agg::sum);
  // Both arrive combined and complete; contention resolved without loss.
  EXPECT_EQ(res.root_values.at(1)[0], 8u);
  EXPECT_EQ(res.root_values.at(2)[0], 8u);
}

TEST(RouterSemantics, RecordedTreesAreTrees) {
  // Every butterfly node of a recorded tree must have exactly one parent
  // toward the root (i.e., packets of a group leave each node along a unique
  // down-edge), so the reversed structure has no converging duplicates.
  Fix f(128);
  Rng rng(7);
  MulticastTrees trees;
  trees.leaf_members.assign(f.topo.columns(), {});
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  for (uint64_t g : {11ull, 22ull, 33ull}) {
    for (int i = 0; i < 30; ++i)
      at_col[rng.next_below(f.topo.columns())].push_back({g, Val{1, 0}});
  }
  auto dest = [&](uint64_t g) { return static_cast<NodeId>((g * 37) % f.topo.columns()); };
  auto rank = [](uint64_t g) { return g; };
  route_down(f.topo, f.net, f.ws, std::move(at_col), dest, rank, agg::sum, &trees);

  // Walk each tree from the root; children masks must describe a DAG that is
  // a tree: visiting via BFS never reaches the same butterfly node twice.
  for (uint64_t g : {11ull, 22ull, 33ull}) {
    std::set<uint64_t> visited;
    std::vector<std::pair<uint32_t, NodeId>> frontier{{f.topo.dims(),
                                                       trees.root_col.at(g)}};
    while (!frontier.empty()) {
      auto [level, col] = frontier.back();
      frontier.pop_back();
      uint64_t idx = f.topo.index(level, col);
      EXPECT_TRUE(visited.insert(idx).second) << "node visited twice in tree " << g;
      if (level == 0) continue;
      const uint64_t* mask = trees.child_mask(idx, g);
      if (!mask) continue;
      for (uint32_t e = 0; e < f.topo.down_degree(level - 1); ++e)
        if ((*mask >> e) & 1)
          frontier.push_back({level - 1, f.topo.up_column(level, col, e)});
    }
  }
}

TEST(RouterSemantics, PerEdgeDisciplineBoundsHostTraffic) {
  // With one packet per directed edge per round, a host (column) can receive
  // at most d cross-arrivals per round — the model-compatibility property of
  // the butterfly emulation.
  Fix f(256);
  Rng rng(9);
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  for (int i = 0; i < 4096; ++i)
    at_col[rng.next_below(f.topo.columns())].push_back(
        {rng.next_below(512), Val{1, 0}});
  auto dest = [&](uint64_t g) { return static_cast<NodeId>(g % f.topo.columns()); };
  auto rank = [](uint64_t g) { return g * 2654435761u; };
  route_down(f.topo, f.net, f.ws, std::move(at_col), dest, rank, agg::sum);
  EXPECT_LE(f.net.stats().max_recv_load, 2 * f.topo.dims());
  EXPECT_EQ(f.net.stats().messages_dropped, 0u);
}

TEST(RouterSemantics, CombineOrderIndependentForCommutativeOps) {
  // Same inputs, two different rank functions: the aggregates must agree
  // (routing order must not leak into commutative-associative results).
  auto run = [](uint64_t rank_salt) {
    Fix f(64, 11);
    Rng rng(13);
    std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
    for (int i = 0; i < 200; ++i)
      at_col[rng.next_below(64)].push_back(
          {rng.next_below(10), Val{static_cast<uint64_t>(i), 1}});
    auto dest = [](uint64_t g) { return static_cast<NodeId>((g * 13) % 64); };
    auto rank = [rank_salt](uint64_t g) { return mix64(g ^ rank_salt); };
    auto res = route_down(f.topo, f.net, f.ws, std::move(at_col), dest, rank, agg::sum);
    std::map<uint64_t, uint64_t> sums;
    res.root_values.for_each([&](uint64_t g, const Val& v) { sums[g] = v[0]; });
    return sums;
  };
  EXPECT_EQ(run(1), run(999));
}

TEST(RouterSemantics, UpRoutingRespectsPerEdgeDiscipline) {
  Fix f(128);
  Rng rng(15);
  MulticastTrees trees;
  trees.leaf_members.assign(f.topo.columns(), {});
  std::vector<std::vector<AggPacket>> at_col(f.topo.columns());
  FlatMap<Val> payloads;
  for (uint64_t g = 100; g < 140; ++g) {
    for (int i = 0; i < 10; ++i)
      at_col[rng.next_below(f.topo.columns())].push_back({g, Val{0, 0}});
    payloads[g] = Val{g, 0};
  }
  auto dest = [&](uint64_t g) { return static_cast<NodeId>((g * 7) % f.topo.columns()); };
  auto rank = [](uint64_t g) { return g; };
  route_down(f.topo, f.net, f.ws, std::move(at_col), dest, rank, agg::sum, &trees);
  Network up_net(f.net.config());  // count the up pass alone
  route_up(f.topo, up_net, f.ws, trees, payloads, rank);
  EXPECT_LE(up_net.stats().max_recv_load, 2 * f.topo.dims());
  EXPECT_EQ(up_net.stats().messages_dropped, 0u);
}

namespace {

/// What one recording route_down followed by route_up produced.
struct Pass {
  std::map<uint64_t, uint64_t> sums;  // group -> aggregated count
  std::vector<std::tuple<NodeId, uint64_t, uint64_t>> delivered;  // (col, group, payload)
  RouteStats down, up;
};

void expect_same_stats(const RouteStats& a, const RouteStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.packets_moved, b.packets_moved);
  EXPECT_EQ(a.combines, b.combines);
  EXPECT_EQ(a.token_resends, b.token_resends);
  EXPECT_EQ(a.lost_groups, b.lost_groups);
  EXPECT_EQ(a.misrouted, b.misrouted);
}

}  // namespace

TEST(RouterSemantics, HeartbeatDrainsTokenTailsInBothDirections) {
  // Drop every message in a window of rounds around the end of each phase's
  // fault-free run, which holds its token tail. A cross-edge token lost there
  // leaves its receiver incomplete forever, so the drain can only finish
  // through the stall heartbeat re-sending launched tokens after the window.
  constexpr NodeId kN = 64;
  constexpr uint64_t kBefore = 4, kAfter = 4;
  const NetConfig cfg{.n = kN, .capacity_factor = 16, .strict_send = true, .seed = 5};
  for (OverlayKind kind : {OverlayKind::kButterfly, OverlayKind::kAugmentedCube}) {
    SCOPED_TRACE(overlay_name(kind));
    auto topo = make_overlay(kind, kN);
    Rng rng(21);
    std::vector<std::vector<AggPacket>> at_col(topo->columns());
    FlatMap<Val> payloads;
    for (int i = 0; i < 300; ++i) {
      uint64_t g = rng.next_below(24);
      at_col[rng.next_below(topo->columns())].push_back({g, Val{1, 0}});
      payloads[g] = Val{g * 7 + 1, g};
    }
    auto dest = [&](uint64_t g) { return static_cast<NodeId>(mix64(g) % topo->columns()); };
    auto rank = [](uint64_t g) { return mix64(g ^ 0x5eed); };

    // `ref_down_rounds` = 0 runs fault-free; otherwise the drop window sits
    // at the end of where each phase's fault-free run would end.
    auto pass = [&](bool engine, uint64_t ref_down_rounds) {
      Network net(cfg);
      std::optional<Engine> eng;
      if (engine) eng.emplace(net);
      RouterWorkspace ws;
      uint64_t lo = 0, hi = 0;  // drop window [lo, hi) in network rounds
      auto window_at = [&](uint64_t phase_rounds) {
        lo = net.rounds() + phase_rounds - kBefore;
        hi = lo + kBefore + kAfter;
      };
      if (ref_down_rounds) {
        FaultHooks hooks;
        hooks.drop = [&](const Message&, uint64_t round, uint64_t) {
          return round >= lo && round < hi;
        };
        // Without a working heartbeat the drain never finishes; fail fast.
        hooks.begin_round = [](uint64_t round) {
          if (round > 1000) throw std::runtime_error("router never drained its tokens");
        };
        net.install_fault_hooks(std::move(hooks));
        window_at(ref_down_rounds);
      }
      MulticastTrees trees;
      trees.leaf_members.assign(topo->columns(), {});
      Pass p;
      DownResult down = route_down(*topo, net, ws, at_col, dest, rank, agg::sum, &trees);
      down.root_values.for_each([&](uint64_t g, const Val& v) { p.sums[g] = v[0]; });
      if (ref_down_rounds) {
        // The up phase's fault-free length over the trees this run recorded.
        Network scratch(cfg);
        window_at(route_up(*topo, scratch, ws, trees, payloads, rank).stats.rounds);
      }
      UpResult up = route_up(*topo, net, ws, trees, payloads, rank);
      for (NodeId c = 0; c < up.at_col.size(); ++c)
        for (const AggPacket& pk : up.at_col[c]) p.delivered.emplace_back(c, pk.group, pk.val[0]);
      p.down = down.stats;
      p.up = up.stats;
      return p;
    };

    const Pass ref = pass(false, 0);
    EXPECT_EQ(ref.down.token_resends, 0u);
    EXPECT_EQ(ref.up.token_resends, 0u);
    const Pass t1 = pass(false, ref.down.rounds);
    const Pass t4 = pass(true, ref.down.rounds);

    // Both phases terminated, and each needed the heartbeat to do so.
    EXPECT_GT(t1.down.token_resends, 0u);
    EXPECT_GT(t1.up.token_resends, 0u);
    // Lost packets can only shrink the results, never invent any.
    for (const auto& [g, sum] : t1.sums) {
      ASSERT_TRUE(ref.sums.count(g)) << "invented group " << g;
      EXPECT_LE(sum, ref.sums.at(g)) << "group " << g;
    }
    auto sorted = [](std::vector<std::tuple<NodeId, uint64_t, uint64_t>> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    auto ref_delivered = sorted(ref.delivered), t1_delivered = sorted(t1.delivered);
    EXPECT_TRUE(std::includes(ref_delivered.begin(), ref_delivered.end(),
                              t1_delivered.begin(), t1_delivered.end()));
    // The faulted runs are the same with an engine attached, heartbeat
    // included.
    EXPECT_EQ(t1.sums, t4.sums);
    EXPECT_EQ(t1.delivered, t4.delivered);
    expect_same_stats(t1.down, t4.down);
    expect_same_stats(t1.up, t4.up);
  }
}

namespace {

/// The source columns and groups of a routing workload: seeded multi-source
/// groups, plus `hot` distinct single-source groups all injected at column
/// 0, whose level-0 state therefore queues at least `hot` groups at once.
std::vector<std::vector<AggPacket>> seeded_sources(const Overlay& topo, uint64_t seed,
                                                   uint64_t groups, uint64_t hot) {
  Rng rng(seed);
  std::vector<std::vector<AggPacket>> at_col(topo.columns());
  for (uint64_t i = 0; i < groups; ++i) {
    const uint64_t g = i * 7919 + 3;
    const uint64_t sources = 1 + rng.next_below(8);
    for (uint64_t s = 0; s < sources; ++s)
      at_col[rng.next_below(topo.columns())].push_back({g, Val{1, g}});
  }
  for (uint64_t i = 0; i < hot; ++i) at_col[0].push_back({(groups + i) * 7919 + 3, Val{1, 0}});
  return at_col;
}

NodeId seeded_dest(const Overlay& topo, uint64_t g) {
  return static_cast<NodeId>(mix64(g ^ 0xd15c) & (topo.columns() - 1));
}
uint64_t seeded_rank(uint64_t g) { return mix64(g ^ 0x5eed); }

/// A router run on its own network, optionally with an engine attached.
struct EngineFix {
  Network net;
  std::optional<Engine> eng;
  RouterWorkspace ws;
  EngineFix(NodeId n, bool engine)
      : net(NetConfig{.n = n, .capacity_factor = 8, .strict_send = true, .seed = 3}) {
    if (engine) eng.emplace(net);
  }
};

/// Max number of distinct groups at one overlay node, computed without the
/// router: on a reliable network with the cache off, a group visits exactly
/// the union of its sources' greedy paths from level 0 to the final level.
uint32_t oracle_congestion(const Overlay& topo, const std::vector<std::vector<AggPacket>>& at_col,
                           const std::function<NodeId(uint64_t)>& dest) {
  std::set<std::pair<uint64_t, uint64_t>> visits;  // (overlay node, group)
  std::map<uint64_t, uint32_t> distinct;           // overlay node -> #groups
  const uint32_t F = topo.levels() - 1;
  for (NodeId c = 0; c < at_col.size(); ++c) {
    for (const AggPacket& p : at_col[c]) {
      const NodeId d = dest(p.group);
      NodeId col = c;
      for (uint32_t l = 0;; ++l) {
        if (visits.insert({topo.overlay_node(l, col), p.group}).second)
          ++distinct[topo.overlay_node(l, col)];
        if (l == F) break;
        col = topo.down_column(l, col, topo.route_edge(l, col, d));
      }
      EXPECT_EQ(col, d) << "greedy path of group " << p.group << " missed its root";
    }
  }
  uint32_t best = 0;
  for (const auto& [node, k] : distinct) best = std::max(best, k);
  return best;
}

}  // namespace

TEST(RouterSemantics, CongestionMatchesGreedyPathOracle) {
  for (NodeId n : {NodeId{64}, NodeId{1024}}) {
    for (OverlayKind kind : all_overlay_kinds()) {
      SCOPED_TRACE(testing::Message() << overlay_name(kind) << " n=" << n);
      const auto topo = make_overlay(kind, n);
      const auto at_col = seeded_sources(*topo, n + 17, n / 2, 600);
      auto dest = [&](uint64_t g) { return seeded_dest(*topo, g); };
      const uint32_t expected = oracle_congestion(*topo, at_col, dest);
      ASSERT_GE(expected, 600u);  // the hot level-0 state alone holds 600 groups
      for (bool engine : {false, true}) {
        SCOPED_TRACE(testing::Message() << "engine=" << engine);
        EngineFix f(n, engine);
        DownResult plain = route_down(*topo, f.net, f.ws, at_col, dest, seeded_rank, agg::sum);
        EXPECT_EQ(plain.stats.congestion, expected);
        MulticastTrees trees;
        trees.leaf_members.assign(topo->columns(), {});
        DownResult rec =
            route_down(*topo, f.net, f.ws, at_col, dest, seeded_rank, agg::sum, &trees);
        EXPECT_EQ(rec.stats.congestion, expected);
        EXPECT_EQ(trees.congestion, expected);
      }
    }
  }
}

TEST(RouterSemantics, ReusedWorkspaceCongestionIsPerCall) {
  // One workspace carries its tables across calls and overlays (all small
  // enough to stay under the keep limit): the hot input, then a light input
  // of other groups, then the hot input again. Each call's congestion is its
  // own input's, so nothing a list kept from an earlier call may count.
  constexpr NodeId kN = 64;
  Network net(NetConfig{.n = kN, .capacity_factor = 8, .strict_send = true, .seed = 3});
  RouterWorkspace ws;
  for (OverlayKind kind : all_overlay_kinds()) {
    SCOPED_TRACE(overlay_name(kind));
    const auto topo = make_overlay(kind, kN);
    auto dest = [&](uint64_t g) { return seeded_dest(*topo, g); };
    const auto hot = seeded_sources(*topo, 5, kN / 2, 600);
    auto light = seeded_sources(*topo, 6, kN / 4, 0);
    for (auto& packets : light)
      for (AggPacket& p : packets) p.group += uint64_t{1} << 40;  // no group of `hot`
    const uint32_t hot_expected = oracle_congestion(*topo, hot, dest);
    const uint32_t light_expected = oracle_congestion(*topo, light, dest);
    ASSERT_GE(hot_expected, 600u);
    ASSERT_LT(light_expected, 600u);
    for (const auto& [input, expected] :
         {std::pair{&hot, hot_expected}, {&light, light_expected}, {&hot, hot_expected}}) {
      SCOPED_TRACE(testing::Message() << "expected=" << expected);
      DownResult plain = route_down(*topo, net, ws, *input, dest, seeded_rank, agg::sum);
      EXPECT_EQ(plain.stats.congestion, expected);
      MulticastTrees trees;
      trees.leaf_members.assign(topo->columns(), {});
      DownResult rec = route_down(*topo, net, ws, *input, dest, seeded_rank, agg::sum, &trees);
      EXPECT_EQ(rec.stats.congestion, expected);
      EXPECT_EQ(trees.congestion, expected);
    }
  }
}

namespace {

/// What a recording route_down plus route_up produced, folded to pins.
struct GoldenPass {
  uint64_t down_rounds, down_moved, down_combines;
  uint32_t congestion;
  uint64_t root_sum;  // root_values in drain order, with each root column
  uint64_t up_rounds, up_moved;
  uint64_t leaf_sum;  // deliveries, column by column in arrival order
  bool operator==(const GoldenPass&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GoldenPass& p) {
  return os << "{" << p.down_rounds << ", " << p.down_moved << ", " << p.down_combines << ", "
            << p.congestion << ", 0x" << std::hex << p.root_sum << std::dec << ", "
            << p.up_rounds << ", " << p.up_moved << ", 0x" << std::hex << p.leaf_sum
            << std::dec << "}";
}

void fold(uint64_t& h, uint64_t x) { h = mix64(h ^ mix64(x)); }

GoldenPass golden_pass(OverlayKind kind, bool engine) {
  constexpr NodeId kN = 256;
  const auto topo = make_overlay(kind, kN);
  EngineFix f(kN, engine);
  auto dest = [&](uint64_t g) { return seeded_dest(*topo, g); };
  MulticastTrees trees;
  trees.leaf_members.assign(topo->columns(), {});
  DownResult down = route_down(*topo, f.net, f.ws, seeded_sources(*topo, 41, 1500, 300), dest,
                               seeded_rank, agg::sum, &trees);
  GoldenPass p{};
  p.down_rounds = down.stats.rounds;
  p.down_moved = down.stats.packets_moved;
  p.down_combines = down.stats.combines;
  p.congestion = down.stats.congestion;
  EXPECT_EQ(trees.congestion, down.stats.congestion);
  FlatMap<Val> payloads;
  down.root_values.for_each([&](uint64_t g, const Val& v) {
    fold(p.root_sum, g);
    fold(p.root_sum, v[0]);
    fold(p.root_sum, v[1]);
    fold(p.root_sum, down.root_col.at(g));
    payloads[g] = Val{v[0] * 31 + g, v[1] ^ g};
  });
  UpResult up = route_up(*topo, f.net, f.ws, trees, payloads, seeded_rank);
  p.up_rounds = up.stats.rounds;
  p.up_moved = up.stats.packets_moved;
  for (NodeId c = 0; c < up.at_col.size(); ++c) {
    for (const AggPacket& pk : up.at_col[c]) {
      fold(p.leaf_sum, c);
      fold(p.leaf_sum, pk.group);
      fold(p.leaf_sum, pk.val[0]);
      fold(p.leaf_sum, pk.val[1]);
    }
  }
  return p;
}

}  // namespace

TEST(RouterSemantics, GoldenRecordAndSpreadPins) {
  // Pinned against the router before its per-state tables were flattened:
  // any change to contention order, combining, tree recording or delivery
  // order moves one of these.
  const std::vector<std::pair<OverlayKind, GoldenPass>> pins = {
      {OverlayKind::kButterfly,
       {172, 50577, 5135, 324, 0xa6f8c036999b311d, 172, 45301, 0xeca08df35716b82b}},
      {OverlayKind::kHypercube,
       {172, 50577, 5135, 389, 0xa6f8c036999b311d, 172, 45301, 0xeca08df35716b82b}},
      {OverlayKind::kAugmentedCube,
       {88, 25764, 5135, 363, 0xf1dbcf366b6a4d0, 88, 23223, 0x2cdc28fd1cd1fc03}},
      {OverlayKind::kRadix4Butterfly,
       {98, 25824, 5135, 324, 0x543f78224ccd1896, 98, 23820, 0xa5384d6e09597beb}},
  };
  for (const auto& [kind, pin] : pins) {
    SCOPED_TRACE(overlay_name(kind));
    EXPECT_EQ(golden_pass(kind, false), pin);
    EXPECT_EQ(golden_pass(kind, true), pin);
  }
}
