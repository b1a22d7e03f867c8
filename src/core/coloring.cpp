#include "core/coloring.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/aggregation.hpp"
#include "primitives/multicast.hpp"

namespace ncc {

namespace {
constexpr uint32_t kColorBits = 16;  // group encoding (id << kColorBits) | color
}

ColoringResult run_coloring(const Shared& shared, Network& net, const Graph& g,
                            const OrientationRunResult& orient,
                            const ColoringParams& params, uint64_t rng_tag) {
  const NodeId n = g.n();
  const Overlay& topo = shared.topo();
  obs::Span span(net, "coloring");
  const Orientation& ori = orient.orientation;
  NCC_ASSERT_MSG(ori.complete(), "coloring needs a completed orientation");
  uint64_t start_rounds = net.stats().total_rounds();

  ColoringResult res;
  res.color.assign(n, UINT32_MAX);

  // a_hat = max over nodes of max(d_L(u), d_out(u)), via Aggregate-and-Broadcast.
  {
    std::vector<std::optional<Val>> inputs(n);
    for (NodeId u = 0; u < n; ++u) {
      uint64_t v = std::max<uint64_t>(orient.same_level[u].size(), ori.outdegree(u));
      inputs[u] = Val{v, 0};
    }
    auto ab = aggregate_and_broadcast(topo, net, shared.barrier_workspace(), inputs,
                                      agg::max_by_first);
    res.a_hat = ab.value ? static_cast<uint32_t>((*ab.value)[0]) : 0;
  }
  uint32_t palette = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::ceil(2.0 * (1.0 + params.eps) * res.a_hat)));
  res.palette_size = palette;
  NCC_ASSERT(palette < (1u << kColorBits));

  // Multicast trees for A_{id(u)} = N_in(u) with source u: every node joins
  // the group of each of its out-neighbors (ell = d_out <= d* = O(a)).
  std::vector<MulticastMembership> memberships;
  for (NodeId v = 0; v < n; ++v)
    for (NodeId w : ori.out_neighbors(v))
      memberships.push_back({v, w, MulticastMembership::kSelf});
  auto setup = setup_multicast_trees(shared, net, memberships, /*ell1_hat=*/0,
                                     mix64(rng_tag ^ 0xc01));

  // Per-node palettes as removal bitmaps.
  std::vector<std::vector<bool>> removed(n, std::vector<bool>(palette, false));
  std::vector<uint32_t> removed_cnt(n, 0);
  auto remove_color = [&](NodeId u, uint32_t c) {
    if (c < palette && !removed[u][c]) {
      removed[u][c] = true;
      ++removed_cnt[u];
    }
  };

  Rng rng = shared.local_rng(mix64(0xc0105 ^ rng_tag));
  uint32_t T = orient.phases;
  for (uint32_t lvl = T; lvl >= 1; --lvl) {
    ++res.phases;
    std::vector<NodeId> level_nodes;
    for (NodeId u = 0; u < n; ++u)
      if (orient.level[u] == lvl) level_nodes.push_back(u);

    bool level_done = level_nodes.empty();
    while (!level_done) {
      ++res.repetitions;
      NCC_ASSERT_MSG(res.repetitions <= 64 * cap_log(n) * T,
                     "coloring failed to converge");
      uint64_t rep_tag = mix64(rng_tag ^ (lvl * 65537 + res.repetitions));

      // Tentative picks.
      std::vector<uint32_t> pick(n, UINT32_MAX);
      std::vector<MulticastSend> tentative;
      for (NodeId u : level_nodes) {
        if (res.color[u] != UINT32_MAX) continue;
        NCC_ASSERT_MSG(removed_cnt[u] < palette, "palette exhausted");
        uint32_t idx = static_cast<uint32_t>(rng.next_below(palette - removed_cnt[u]));
        uint32_t c = 0;
        for (;; ++c) {
          if (!removed[u][c]) {
            if (idx == 0) break;
            --idx;
          }
        }
        pick[u] = c;
        tentative.push_back({u, u, Val{c, 0}});
      }
      // Announce tentative picks to in-neighbors; a node thereby receives the
      // picks of its out-neighbors (of the same level; others are silent).
      auto mc1 = run_multicast(shared, net, setup.trees, tentative,
                               std::max(orient.d_star, 1u), rep_tag ^ 1);
      std::vector<bool> keep(n, false);
      for (NodeId u : level_nodes) {
        if (pick[u] == UINT32_MAX) continue;
        bool conflict = false;
        for (const AggPacket& p : mc1.received[u]) {
          if (static_cast<uint32_t>(p.val[0]) == pick[u]) {
            conflict = true;
            break;
          }
        }
        keep[u] = !conflict;
      }

      // Permanent choices: announce to in-neighbors (multicast) ...
      std::vector<MulticastSend> finals;
      for (NodeId u : level_nodes)
        if (keep[u]) finals.push_back({u, u, Val{pick[u], 1}});
      auto mc2 = run_multicast(shared, net, setup.trees, finals,
                               std::max(orient.d_star, 1u), rep_tag ^ 2);
      for (NodeId v = 0; v < n; ++v)
        for (const AggPacket& p : mc2.received[v])
          if (p.val[1] == 1) remove_color(v, static_cast<uint32_t>(p.val[0]));

      // ... and to out-neighbors (aggregation with per-color groups).
      AggregationProblem prob;
      prob.combine = agg::sum;
      prob.target = [](uint64_t grp) { return static_cast<NodeId>(grp >> kColorBits); };
      prob.ell2_hat = palette;
      for (NodeId u : level_nodes) {
        if (!keep[u]) continue;
        for (NodeId v : ori.out_neighbors(u)) {
          uint64_t grp = (static_cast<uint64_t>(v) << kColorBits) | pick[u];
          prob.items.push_back({u, grp, Val{1, 0}});
        }
      }
      auto agg_res = run_aggregation(shared, net, prob, rep_tag ^ 3);
      // Per-(node, color) groups are unique, so the removals commute and
      // the FlatMap slot order cannot leak into the result.
      agg_res.at_target.for_each([&](uint64_t grp, const Val&) {
        remove_color(static_cast<NodeId>(grp >> kColorBits),
                     static_cast<uint32_t>(grp & ((1u << kColorBits) - 1)));
      });

      for (NodeId u : level_nodes)
        if (keep[u]) res.color[u] = pick[u];

      // Repetition barrier + termination check for this level.
      std::vector<std::optional<Val>> inputs(n);
      for (NodeId u : level_nodes)
        if (res.color[u] == UINT32_MAX) inputs[u] = Val{1, 0};
      auto ab = aggregate_and_broadcast(topo, net, shared.barrier_workspace(), inputs, agg::sum);
      level_done = !ab.value.has_value();
    }
    if (lvl == 1) break;
  }

  res.rounds = net.stats().total_rounds() - start_rounds;
  return res;
}

}  // namespace ncc
