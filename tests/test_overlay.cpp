// Tests for the overlay layer (src/overlay/): the table-driven Overlay
// against reference oracles of the closed-form per-overlay rules it replaced,
// structural properties of the hypercube Q_d, the augmented cube AQ_d and the
// level-dependent radix-4 butterfly, greedy-route convergence on every
// overlay, the butterfly == time-unrolled-hypercube identity, the router on
// the augmented cube, the overlay-native aggregation trees (binary tree
// bit-identical to seed, AQ_d tree at half the depth, barrier == all-ones A&B and
// engine-attached byte identity), and the acceptance property that every
// registered algorithm produces identical verified outputs on all overlays
// over a reliable network.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "engine/engine.hpp"
#include "net/network.hpp"
#include "overlay/overlay.hpp"
#include "overlay/router.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/context.hpp"
#include "scenario/faults.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

using namespace ncc;

TEST(OverlayNames, RoundTrip) {
  for (OverlayKind kind : all_overlay_kinds()) {
    auto back = overlay_from_name(overlay_name(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(overlay_from_name("torus").has_value());
}

// --- Reference oracle ----------------------------------------------------
// The closed-form rules of the per-overlay classes the generator tables
// replaced, kept verbatim as the oracle the one greedy rule must reproduce.
namespace {
namespace ref {

bool is_aq(OverlayKind k) { return k == OverlayKind::kAugmentedCube; }
bool is_r4(OverlayKind k) { return k == OverlayKind::kRadix4Butterfly; }

/// AQ_d: the generator that clears `delta` (!= 0) — e_h for an isolated msb,
/// s_h = 2^{h+1}-1 when the msb heads a run of set bits.
NodeId greedy_mask(NodeId delta) {
  uint32_t h = floor_log2(delta);
  uint32_t l = h;
  while (l > 0 && ((delta >> (l - 1)) & 1u)) --l;
  if (l == h && h != 0) return NodeId{1} << h;
  return (NodeId{1} << (h + 1)) - 1;
}

/// Radix-4: dimensions owned by `level` (2, or 1 at an odd d's last level).
uint32_t pair_width(uint32_t d, uint32_t level) { return 2 * level + 1 < d ? 2 : 1; }

uint32_t levels(OverlayKind k, uint32_t d) {
  if (is_aq(k)) return ceil_div(d + 1, 2) + 1;
  if (is_r4(k)) return ceil_div(d, 2) + 1;
  return d + 1;
}

uint32_t down_degree(OverlayKind k, uint32_t d, uint32_t level) {
  if (is_aq(k)) return 2 * d;
  if (is_r4(k)) return pair_width(d, level) == 2 ? 4 : 2;
  return 2;
}

/// Column XOR mask of down-edge `edge` at `level`.
NodeId generator(OverlayKind k, uint32_t d, uint32_t level, uint32_t edge) {
  if (edge == 0) return 0;
  if (is_aq(k))
    return edge <= d ? NodeId{1} << (edge - 1) : (NodeId{1} << (edge - d + 1)) - 1;
  if (is_r4(k)) return static_cast<NodeId>(edge) << (2 * level);
  return NodeId{1} << level;
}

uint32_t edge_from_delta(OverlayKind k, uint32_t d, uint32_t level, NodeId delta) {
  if (is_aq(k)) {
    if ((delta & (delta - 1)) == 0) return 1 + floor_log2(delta);
    return 1 + d + (floor_log2(delta) - 1);
  }
  if (is_r4(k)) return static_cast<uint32_t>(delta >> (2 * level));
  return 1;
}

uint32_t route_edge(OverlayKind k, uint32_t d, uint32_t level, NodeId col, NodeId dest) {
  NodeId delta = col ^ dest;
  if (is_aq(k)) return delta == 0 ? 0 : edge_from_delta(k, d, level, greedy_mask(delta));
  if (is_r4(k)) {
    NodeId mask = (NodeId{1} << pair_width(d, level)) - 1;
    return static_cast<uint32_t>((delta >> (2 * level)) & mask);
  }
  return (delta >> level) & 1u;
}

uint32_t agg_steps(OverlayKind k, uint32_t d) {
  return is_aq(k) ? ceil_div(d + 1, 2) : d;
}

NodeId agg_parent(OverlayKind k, uint32_t step, NodeId col) {
  if (is_aq(k)) return col == 0 ? 0 : col ^ greedy_mask(col);
  return col & ~(NodeId{1} << step);  // the seed tree: clear bit `step`
}

std::vector<NodeId> column_neighbors(OverlayKind k, uint32_t d, NodeId col) {
  std::vector<NodeId> out;
  for (uint32_t i = 0; i < d; ++i) out.push_back(col ^ (NodeId{1} << i));
  if (is_aq(k))
    for (uint32_t j = 1; j < d; ++j) out.push_back(col ^ ((NodeId{2} << j) - 1));
  if (is_r4(k))
    for (uint32_t l = 0; 2 * l + 1 < d; ++l) out.push_back(col ^ (NodeId{3} << (2 * l)));
  return out;
}

uint64_t overlay_node_count(OverlayKind k, uint32_t d) {
  bool levels_are_nodes = k == OverlayKind::kButterfly || is_r4(k);
  return levels_are_nodes ? uint64_t{levels(k, d)} << d : uint64_t{1} << d;
}

uint64_t seed_broadcast_rounds(OverlayKind k, NodeId n, uint32_t words) {
  uint32_t depth = is_aq(k) ? agg_steps(k, floor_log2(n)) : cap_log(n);
  return 2ull * depth + ceil_div(words, cap_log(n));
}

}  // namespace ref
}  // namespace

TEST(OverlayTables, MatchClosedFormReference) {
  std::vector<NodeId> sizes;
  for (NodeId n = 2; n <= 40; ++n) sizes.push_back(n);
  for (NodeId n : {48u, 100u, 257u, 512u}) sizes.push_back(n);
  bool depth_terms_differ = false;  // seed_depth != cap_log(n) was exercised
  for (OverlayKind k : all_overlay_kinds()) {
    for (NodeId n : sizes) {
      Overlay o(k, n);
      const uint32_t d = o.dims();
      const std::string at = std::string(overlay_name(k)) + " n=" + std::to_string(n);
      ASSERT_EQ(o.levels(), ref::levels(k, d)) << at;
      ASSERT_EQ(o.overlay_node_count(), ref::overlay_node_count(k, d)) << at;
      for (uint32_t words : {1u, 7u, 64u})
        ASSERT_EQ(o.seed_broadcast_rounds(words), ref::seed_broadcast_rounds(k, n, words))
            << at << " words=" << words;
      if (ref::is_aq(k) && o.agg_steps() != cap_log(n)) depth_terms_differ = true;
      for (NodeId c = 0; c < o.columns(); ++c)
        ASSERT_EQ(o.column_neighbors(c), ref::column_neighbors(k, d, c)) << at;
      // Counted, not asserted per call: the sweep makes ~10M comparisons.
      uint64_t bad = 0;
      for (uint32_t l = 0; l + 1 < o.levels(); ++l) {
        const uint32_t deg = ref::down_degree(k, d, l);
        ASSERT_EQ(o.down_degree(l), deg) << at << " level " << l;
        for (uint32_t e = 1; e < deg; ++e) {
          const NodeId g = ref::generator(k, d, l, e);
          bad += o.edge_from_delta(l, g) != ref::edge_from_delta(k, d, l, g);
        }
        for (NodeId col = 0; col < o.columns(); ++col) {
          for (uint32_t e = 0; e < deg; ++e)
            bad += o.down_column(l, col, e) != (col ^ ref::generator(k, d, l, e));
          for (NodeId dest = 0; dest < o.columns(); ++dest)
            bad += o.route_edge(l, col, dest) != ref::route_edge(k, d, l, col, dest);
        }
      }
      ASSERT_EQ(o.agg_steps(), ref::agg_steps(k, d)) << at;
      for (uint32_t i = 0; i < o.agg_steps(); ++i)
        for (NodeId c = 0; c < o.columns(); ++c)
          bad += o.agg_parent(i, c) != ref::agg_parent(k, i, c);
      EXPECT_EQ(bad, 0u) << at;
    }
  }
  EXPECT_TRUE(depth_terms_differ);
}

TEST(Hypercube, StructureIsQd) {
  Overlay q(OverlayKind::kHypercube, 64);  // d = 6
  EXPECT_EQ(q.levels(), 7u);
  EXPECT_EQ(q.overlay_node_count(), 64u);  // levels collapse onto 2^d vertices
  for (NodeId c = 0; c < q.columns(); ++c) {
    auto nb = q.column_neighbors(c);
    EXPECT_EQ(nb.size(), q.dims());  // degree d
    std::set<NodeId> distinct(nb.begin(), nb.end());
    EXPECT_EQ(distinct.size(), nb.size());
    for (NodeId v : nb) {
      EXPECT_EQ(std::popcount(static_cast<uint32_t>(c ^ v)), 1);  // cube edge
      auto back = q.column_neighbors(v);
      EXPECT_TRUE(std::count(back.begin(), back.end(), c))  // symmetry
          << c << " <-> " << v;
    }
  }
}

TEST(AugmentedCube, StructureIsAQd) {
  for (NodeId n : {2u, 8u, 64u, 256u}) {
    Overlay aq(OverlayKind::kAugmentedCube, n);
    const uint32_t d = aq.dims();
    for (NodeId c = 0; c < aq.columns(); ++c) {
      auto nb = aq.column_neighbors(c);
      // The Ganesan construction: 2d-1 distinct neighbor generators (d bit
      // flips e_i plus d-1 suffix complements s_j).
      EXPECT_EQ(nb.size(), 2 * d - 1) << "n=" << n;
      std::set<NodeId> distinct(nb.begin(), nb.end());
      EXPECT_EQ(distinct.size(), nb.size());
      for (NodeId v : nb) {
        NodeId delta = c ^ v;
        bool bit_flip = std::popcount(static_cast<uint32_t>(delta)) == 1;
        bool suffix = (delta & (delta + 1)) == 0 && delta >= 3;  // 2^{j+1}-1
        EXPECT_TRUE(bit_flip || suffix) << "delta " << delta;
        // Symmetry: XOR generators are involutions.
        auto back = aq.column_neighbors(v);
        EXPECT_TRUE(std::count(back.begin(), back.end(), c));
        // edge_from_delta inverts down_column on every level.
        uint32_t e = aq.edge_from_delta(0, delta);
        EXPECT_EQ(aq.down_column(0, c, e), v);
      }
    }
  }
}

TEST(AugmentedCube, LevelsMatchDiameterBound) {
  // ceil((d+1)/2) routing steps suffice (the AQ_d diameter): levels = that +1.
  for (NodeId n : {2u, 4u, 16u, 64u, 1024u}) {
    Overlay aq(OverlayKind::kAugmentedCube, n);
    EXPECT_EQ(aq.levels(), (aq.dims() + 1 + 1) / 2 + 1) << "n=" << n;
  }
}

TEST(Radix4Butterfly, LevelDependentGeneratorSets) {
  for (NodeId n : {2u, 8u, 32u, 64u, 256u}) {
    Overlay r4(OverlayKind::kRadix4Butterfly, n);
    const uint32_t d = r4.dims();
    EXPECT_EQ(r4.levels(), (d + 1) / 2 + 1) << "n=" << n;
    // Per-level generator sets: the pair {e_{2l}, e_{2l+1}, e_{2l}^e_{2l+1}}
    // (degree 4), degrading to the lone e_{d-1} (degree 2) when d is odd.
    for (uint32_t l = 0; l + 1 < r4.levels(); ++l) {
      bool full_pair = 2 * l + 1 < d;
      EXPECT_EQ(r4.down_degree(l), full_pair ? 4u : 2u) << "n=" << n << " l=" << l;
      for (uint32_t e = 1; e < r4.down_degree(l); ++e) {
        NodeId delta = r4.down_column(l, 0, e);
        EXPECT_EQ(delta, static_cast<NodeId>(e) << (2 * l));
        EXPECT_EQ(r4.edge_from_delta(l, delta), e);
      }
    }
    // Distinct levels own distinct dimensions: the union of all generators
    // has d single-bit flips plus floor(d/2) pair flips.
    auto nb = r4.column_neighbors(5 % r4.columns());
    EXPECT_EQ(nb.size(), d + d / 2) << "n=" << n;
    std::set<NodeId> distinct(nb.begin(), nb.end());
    EXPECT_EQ(distinct.size(), nb.size());
  }
}

TEST(Overlays, GreedyRouteReachesEveryDestination) {
  for (OverlayKind kind : all_overlay_kinds()) {
    auto topo = make_overlay(kind, 64);
    const uint32_t steps = topo->levels() - 1;
    for (NodeId src = 0; src < topo->columns(); ++src) {
      for (NodeId dst = 0; dst < topo->columns(); ++dst) {
        NodeId cur = src;
        uint32_t cross = 0;
        for (uint32_t level = 0; level < steps; ++level) {
          uint32_t e = topo->route_edge(level, cur, dst);
          ASSERT_LT(e, topo->down_degree(level));
          NodeId next = topo->down_column(level, cur, e);
          if (next != cur) ++cross;
          cur = next;
        }
        ASSERT_EQ(cur, dst) << overlay_name(kind) << " " << src << "->" << dst;
        // Once at the destination the greedy rule holds still.
        EXPECT_LE(cross, steps);
      }
    }
  }
}

TEST(Overlays, UpEdgesInvertDownEdges) {
  for (OverlayKind kind : all_overlay_kinds()) {
    auto topo = make_overlay(kind, 32);
    for (uint32_t level = 0; level + 1 < topo->levels(); ++level) {
      for (NodeId c = 0; c < topo->columns(); ++c) {
        for (uint32_t e = 0; e < topo->down_degree(level); ++e) {
          NodeId down = topo->down_column(level, c, e);
          EXPECT_EQ(topo->up_column(level + 1, down, e), c);
          if (e > 0) { EXPECT_EQ(topo->edge_from_delta(level, c ^ down), e); }
        }
      }
    }
  }
}

namespace {

/// Router fixture parameterized on the overlay; capacity_factor 16 funds the
/// augmented cube's 2d-1 per-round degree under strict_send.
struct OverlayRouterFixture {
  Network net;
  std::unique_ptr<Overlay> topo;
  RouterWorkspace ws;
  KWiseHash hdest;
  KWiseHash hrank;

  OverlayRouterFixture(OverlayKind kind, NodeId n, uint64_t seed = 3)
      : net(NetConfig{.n = n, .capacity_factor = 16, .strict_send = true,
                      .seed = seed}),
        topo(make_overlay(kind, n)),
        hdest(4, Rng(seed * 31)),
        hrank(4, Rng(seed * 37)) {}

  std::function<NodeId(uint64_t)> dest() {
    return [this](uint64_t g) {
      return static_cast<NodeId>(hdest.to_range(g, topo->columns()));
    };
  }
  std::function<uint64_t(uint64_t)> rank() {
    return [this](uint64_t g) { return hrank(g); };
  }
};

}  // namespace

TEST(OverlayRouter, CombinesGroupSumsOnEveryOverlay) {
  for (OverlayKind kind : all_overlay_kinds()) {
    OverlayRouterFixture f(kind, 64);
    Rng rng(5);
    std::vector<std::vector<AggPacket>> at_col(f.topo->columns());
    std::map<uint64_t, uint64_t> expect;
    for (int i = 0; i < 400; ++i) {
      uint64_t g = rng.next_below(20);
      NodeId c = static_cast<NodeId>(rng.next_below(f.topo->columns()));
      at_col[c].push_back({g, Val{1, 0}});
      ++expect[g];
    }
    auto res =
        route_down(*f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum);
    ASSERT_EQ(res.root_values.size(), expect.size()) << overlay_name(kind);
    for (auto& [g, cnt] : expect)
      EXPECT_EQ(res.root_values.at(g)[0], cnt)
          << overlay_name(kind) << " group " << g;
    EXPECT_EQ(res.stats.misrouted, 0u);
    EXPECT_EQ(res.stats.token_resends, 0u);
    EXPECT_EQ(f.net.stats().messages_dropped, 0u) << overlay_name(kind);
  }
}

TEST(OverlayRouter, MulticastTreesDeliverOnAugmentedCube) {
  OverlayRouterFixture f(OverlayKind::kAugmentedCube, 64);
  Rng rng(9);
  MulticastTrees trees;
  trees.leaf_members.assign(f.topo->columns(), {});
  std::vector<std::vector<AggPacket>> at_col(f.topo->columns());
  std::map<uint64_t, std::set<NodeId>> leaves;
  for (uint64_t g : {100ull, 200ull, 300ull}) {
    for (int i = 0; i < 20; ++i) {
      NodeId c = static_cast<NodeId>(rng.next_below(f.topo->columns()));
      at_col[c].push_back({g, Val{0, 0}});
      leaves[g].insert(c);
    }
  }
  route_down(*f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum, &trees);
  EXPECT_EQ(trees.levels, f.topo->levels());

  FlatMap<Val> payloads;
  payloads.emplace(100, Val{111, 0});
  payloads.emplace(200, Val{222, 0});
  payloads.emplace(300, Val{333, 0});
  auto up = route_up(*f.topo, f.net, f.ws, trees, payloads, f.rank());
  for (auto& [g, expect_cols] : leaves) {
    std::set<NodeId> got;
    for (NodeId c = 0; c < f.topo->columns(); ++c)
      for (const AggPacket& p : up.at_col[c])
        if (p.group == g) got.insert(c);
    EXPECT_EQ(got, expect_cols) << "group " << g;
  }
  EXPECT_EQ(up.stats.misrouted, 0u);
  EXPECT_EQ(f.net.stats().messages_dropped, 0u);
}

TEST(OverlayRouter, AugmentedCubeUsesFewerRoutingLevels) {
  // The headline trade: AQ_d drains in fewer rounds than the butterfly on the
  // same workload (about half the routing levels), at a higher message cost
  // (2d-1 termination tokens per node-level instead of 2).
  auto run = [](OverlayKind kind) {
    OverlayRouterFixture f(kind, 256, 7);
    Rng rng(13);
    std::vector<std::vector<AggPacket>> at_col(f.topo->columns());
    for (int i = 0; i < 2048; ++i)
      at_col[rng.next_below(f.topo->columns())].push_back(
          {rng.next_below(128), Val{1, 0}});
    auto res =
        route_down(*f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum);
    return std::make_pair(res.stats.rounds, f.net.stats().messages_sent);
  };
  auto [bf_rounds, bf_msgs] = run(OverlayKind::kButterfly);
  auto [aq_rounds, aq_msgs] = run(OverlayKind::kAugmentedCube);
  EXPECT_LT(aq_rounds, bf_rounds);
  EXPECT_GT(aq_msgs, bf_msgs);
}

TEST(OverlayRouter, HypercubeIsTheUnrolledButterfly) {
  // Identical column dynamics: same rounds, same messages, bit for bit.
  auto run = [](OverlayKind kind) {
    OverlayRouterFixture f(kind, 128, 11);
    Rng rng(17);
    std::vector<std::vector<AggPacket>> at_col(f.topo->columns());
    for (int i = 0; i < 600; ++i)
      at_col[rng.next_below(f.topo->columns())].push_back(
          {rng.next_below(60), Val{1, 0}});
    auto res =
        route_down(*f.topo, f.net, f.ws, std::move(at_col), f.dest(), f.rank(), agg::sum);
    return std::make_tuple(res.stats.rounds, res.stats.packets_moved,
                           f.net.stats().messages_sent);
  };
  EXPECT_EQ(run(OverlayKind::kButterfly), run(OverlayKind::kHypercube));
}

// --- Overlay-native aggregation trees (A&B / sync_barrier) -----------------

namespace {

/// Columns merging into `col` at `step`: agg_parent inverted, column-ascending.
std::vector<NodeId> agg_children(const Overlay& o, uint32_t step, NodeId col) {
  std::vector<NodeId> out;
  for (NodeId c = 0; c < o.columns(); ++c)
    if (c != col && o.agg_parent(step, c) == col) out.push_back(c);
  return out;
}

}  // namespace

TEST(AggTree, DefaultIsTheSeedBinaryTree) {
  // Every overlay whose aggregation table is {e_i} at step i — butterfly,
  // hypercube and the level-dependent radix-4 butterfly — keeps the seed's
  // clear-bit-i binary tree exactly: dims() steps, parent clears bit `step`,
  // children invert parents.
  for (OverlayKind kind : {OverlayKind::kButterfly, OverlayKind::kHypercube,
                           OverlayKind::kRadix4Butterfly}) {
    auto topo = make_overlay(kind, 48);
    ASSERT_EQ(topo->agg_steps(), topo->dims());
    for (uint32_t i = 0; i < topo->agg_steps(); ++i) {
      for (NodeId c = 0; c < topo->columns(); ++c) {
        EXPECT_EQ(topo->agg_parent(i, c), c & ~(NodeId{1} << i)) << overlay_name(kind);
        auto kids = agg_children(*topo, i, c);
        if (c & (NodeId{1} << i)) {
          EXPECT_TRUE(kids.empty());
        } else {
          ASSERT_EQ(kids.size(), 1u);
          EXPECT_EQ(kids[0], c | (NodeId{1} << i));
        }
      }
    }
  }
}

TEST(AggTree, EveryColumnReachesRootWithinAggSteps) {
  // The tree contract on every overlay: iterating agg_parent over the steps
  // sends every column to 0, each hop a legal tree edge with consistent
  // children lists.
  for (OverlayKind kind : all_overlay_kinds()) {
    for (NodeId n : {2u, 8u, 64u, 200u, 1024u}) {
      auto topo = make_overlay(kind, n);
      const uint32_t S = topo->agg_steps();
      for (NodeId c0 = 0; c0 < topo->columns(); ++c0) {
        NodeId c = c0;
        for (uint32_t i = 0; i < S; ++i) {
          NodeId p = topo->agg_parent(i, c);
          if (p != c) {
            auto kids = agg_children(*topo, i, p);
            EXPECT_TRUE(std::count(kids.begin(), kids.end(), c))
                << overlay_name(kind) << " step " << i << " " << c << "->" << p;
          }
          c = p;
        }
        ASSERT_EQ(c, 0u) << overlay_name(kind) << " n=" << n << " col " << c0;
      }
    }
  }
}

TEST(AggTree, AugmentedCubeHalvesTheDepth) {
  for (NodeId n : {8u, 64u, 256u, 1024u, 4096u}) {
    Overlay aq(OverlayKind::kAugmentedCube, n);
    const uint32_t d = aq.dims();
    EXPECT_EQ(aq.agg_steps(), (d + 1 + 1) / 2) << "n=" << n;  // ceil((d+1)/2)
    EXPECT_LT(aq.agg_steps(), d) << "n=" << n;                // strict for d >= 3
    // Every merge edge is an AQ_d generator edge (e_i or a suffix mask s_j).
    for (NodeId c = 1; c < aq.columns(); ++c) {
      NodeId delta = c ^ aq.agg_parent(0, c);
      bool bit_flip = std::popcount(static_cast<uint32_t>(delta)) == 1;
      bool suffix = delta >= 3 && (delta & (delta + 1)) == 0;
      EXPECT_TRUE(bit_flip || suffix) << "col " << c << " delta " << delta;
    }
  }
}

TEST(AggTree, BarrierRoundsMatchTreeDepthPerOverlay) {
  // sync_barrier costs 2*agg_steps() + 2 rounds: the seed's 2d+2 on every
  // default-tree overlay, 2*ceil((d+1)/2) + 2 on the augmented cube —
  // strictly fewer for d >= 3.
  for (NodeId n : {16u, 100u, 512u}) {
    std::map<OverlayKind, uint64_t> rounds;
    for (OverlayKind kind : all_overlay_kinds()) {
      Network net(NetConfig{.n = n, .capacity_factor = 16, .seed = 5});
      auto topo = make_overlay(kind, n);
      BarrierWorkspace ws;
      rounds[kind] = sync_barrier(*topo, net, ws);
      EXPECT_EQ(rounds[kind], 2ull * topo->agg_steps() + 2) << overlay_name(kind);
      EXPECT_EQ(net.stats().messages_dropped, 0u) << overlay_name(kind);
    }
    uint64_t seed_rounds = 2ull * floor_log2(n) + 2;
    EXPECT_EQ(rounds[OverlayKind::kButterfly], seed_rounds);
    EXPECT_EQ(rounds[OverlayKind::kHypercube], seed_rounds);
    EXPECT_EQ(rounds[OverlayKind::kRadix4Butterfly], seed_rounds);
    EXPECT_LT(rounds[OverlayKind::kAugmentedCube], seed_rounds) << "n=" << n;
  }
}

TEST(AggTree, BarrierFastPathMatchesGeneralPrimitive) {
  // The barrier is the all-ones A&B and must replay its schedule exactly:
  // same rounds, same message stream, same NetStats — on every overlay, and
  // with fault injection active (drop/corrupt decisions key on the per-round
  // send index, so any divergence in a send decision shows up in the
  // fault_drops/corrupted counters).
  for (OverlayKind kind : all_overlay_kinds()) {
    for (bool faulted : {false, true}) {
      auto run = [&](bool fast) {
        Network net(NetConfig{.n = 200, .capacity_factor = 16,
                              .strict_send = !faulted, .seed = 9});
        std::optional<scenario::FaultInjector> inject;
        if (faulted) {
          scenario::FaultModel model;
          model.drop_rate = 0.05;
          model.byzantine_rate = 0.05;
          inject.emplace(net, model, /*seed=*/33, /*round_limit=*/0);
        }
        auto topo = make_overlay(kind, 200);
        BarrierWorkspace ws;
        uint64_t rounds;
        if (fast) {
          rounds = sync_barrier(*topo, net, ws);
        } else {
          std::vector<std::optional<Val>> ones(200, Val{1, 0});
          rounds = aggregate_and_broadcast(*topo, net, ws, ones, agg::sum).rounds;
        }
        const NetStats& st = net.stats();
        return std::make_tuple(rounds, st.messages_sent, st.fault_drops,
                               st.corrupted, st.max_send_load, st.max_recv_load);
      };
      auto fast = run(true), general = run(false);
      EXPECT_EQ(fast, general) << overlay_name(kind) << " faulted=" << faulted;
      if (faulted) { EXPECT_GT(std::get<2>(fast), 0u) << overlay_name(kind); }
    }
  }
}

TEST(AggTree, AbValueIdenticalAcrossOverlaysAndThreads) {
  // Full A&B over a sparse input subset: the aggregate is overlay-independent
  // and an attached engine changes nothing (identical rounds/messages/value).
  for (OverlayKind kind : all_overlay_kinds()) {
    auto run = [&](bool engine) {
      Network net(NetConfig{.n = 150, .capacity_factor = 16, .seed = 21});
      std::optional<Engine> eng;
      if (engine) eng.emplace(net);
      auto topo = make_overlay(kind, 150);
      std::vector<std::optional<Val>> inputs(150);
      for (NodeId u = 3; u < 150; u += 7) inputs[u] = Val{u, 1};
      BarrierWorkspace ws;
      auto res = aggregate_and_broadcast(*topo, net, ws, inputs, agg::sum);
      uint64_t barrier_rounds = sync_barrier(*topo, net, ws);
      EXPECT_TRUE(res.value.has_value());
      return std::make_tuple((*res.value)[0], (*res.value)[1], res.rounds,
                             barrier_rounds, net.stats().messages_sent);
    };
    auto t1 = run(false), t8 = run(true);
    EXPECT_EQ(t1, t8) << overlay_name(kind);
    uint64_t expect_sum = 0, expect_cnt = 0;
    for (NodeId u = 3; u < 150; u += 7) expect_sum += u, ++expect_cnt;
    EXPECT_EQ(std::get<0>(t1), expect_sum) << overlay_name(kind);
    EXPECT_EQ(std::get<1>(t1), expect_cnt) << overlay_name(kind);
  }
}

// The acceptance criterion: on a reliable network every registered algorithm
// produces identical verified outputs on every overlay — the overlay
// changes how results are routed, never what they are.
TEST(OverlayEquivalence, AllAlgorithmsAgreeAcrossOverlays) {
  using namespace ncc::scenario;
  for (const std::string& algo : algorithm_names()) {
    ScenarioRunFn fn = find_algorithm(algo);
    ASSERT_NE(fn, nullptr) << algo;
    std::string verdict0;
    std::map<std::string, uint64_t> outputs0;
    for (OverlayKind kind : all_overlay_kinds()) {
      ScenarioSpec spec;
      std::string err;
      ASSERT_TRUE(apply_spec_key(spec, "graph", "gnm", &err)) << err;
      ASSERT_TRUE(apply_spec_key(spec, "n", "48", &err)) << err;
      ASSERT_TRUE(apply_spec_key(spec, "m", "200", &err)) << err;
      ASSERT_TRUE(apply_spec_key(spec, "connect", "true", &err)) << err;
      ASSERT_TRUE(apply_spec_key(spec, "weights", "distinct", &err)) << err;
      ASSERT_TRUE(apply_spec_key(spec, "algorithm", algo, &err)) << err;
      ASSERT_TRUE(apply_spec_key(spec, "seed", "99", &err)) << err;
      ASSERT_TRUE(apply_spec_key(spec, "capacity_factor", "16", &err)) << err;
      ASSERT_TRUE(validate_spec(spec, &err)) << err;
      spec.overlay = kind;
      auto graph = build_graph(spec, &err);
      ASSERT_TRUE(graph.has_value()) << err;
      Network net(NetConfig{.n = graph->n(),
                            .capacity_factor = spec.capacity_factor,
                            .strict_send = true,
                            .seed = spec.seed});
      ScenarioRunResult res = fn(net, *graph, spec);
      EXPECT_TRUE(res.ok) << algo << " on " << overlay_name(kind) << ": "
                          << res.verdict;
      // Output-shaped counters must agree; cost-shaped ones (rounds, routed
      // overlay hops) may not (that is the point of swapping the overlay).
      std::map<std::string, uint64_t> outputs;
      for (const auto& [k, v] : res.counters)
        if (k.find("rounds") == std::string::npos && k != "routed") outputs[k] = v;
      if (kind == OverlayKind::kButterfly) {
        verdict0 = res.verdict;
        outputs0 = outputs;
      } else {
        EXPECT_EQ(res.verdict, verdict0) << algo << " on " << overlay_name(kind);
        EXPECT_EQ(outputs, outputs0) << algo << " on " << overlay_name(kind);
      }
    }
  }
}
