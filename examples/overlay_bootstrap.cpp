// Section-6 scenario: nodes join the system knowing only their ring
// neighbors plus Theta(log n) random contacts — no global membership view.
// They first bootstrap the butterfly overlay (greedy introduction routing),
// and then run the standard pipeline (orientation -> broadcast trees -> MIS)
// on top of it, demonstrating the paper's closing observation that the
// full-clique knowledge assumption is not load-bearing.
//
//   ./example_overlay_bootstrap [n]
#include <cstdio>
#include <cstdlib>

#include "baselines/sequential.hpp"
#include "core/broadcast_trees.hpp"
#include "core/mis.hpp"
#include "core/orientation_algo.hpp"
#include "core/overlay_join.hpp"
#include "graph/generators.hpp"
#include "overlay/overlay.hpp"

using namespace ncc;

int main(int argc, char** argv) {
  NodeId n = argc > 1 ? static_cast<NodeId>(std::atoi(argv[1])) : 512;
  Rng rng(31);
  Graph g = random_forest_union(n, 3, rng);
  std::printf("input graph: n=%u, m=%lu (arboricity <= 3)\n", g.n(), g.m());

  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 15;
  Network net(cfg);

  // Phase 0: butterfly overlay from restricted knowledge.
  Overlay topo(OverlayKind::kButterfly, n);
  auto join = build_overlay_join(net, topo, {}, 15);
  std::printf("overlay join: %lu rounds, %lu introductions, avg %.1f hops, "
              "knowledge %u..%u ids/node, complete=%s\n",
              join.rounds, join.requests,
              static_cast<double>(join.total_hops) /
                  static_cast<double>(std::max<uint64_t>(1, join.requests)),
              join.min_knowledge, join.max_knowledge,
              join.complete ? "yes" : "NO");

  // Phases 1..3: the usual stack, now running over the bootstrapped overlay.
  Shared shared(n, 15);
  auto orient = run_orientation(shared, net, g);
  auto bt = build_broadcast_trees(shared, net, g, orient.orientation, 2);
  auto mis = run_mis(shared, net, g, bt, 4);
  uint32_t size = 0;
  for (bool b : mis.in_mis) size += b;
  std::printf("pipeline: orientation %lu + trees %lu + MIS %lu rounds; "
              "|MIS| = %u, valid=%s\n",
              orient.rounds, bt.rounds, mis.rounds, size,
              is_maximal_independent_set(g, mis.in_mis) ? "yes" : "NO");
  std::printf("total: %lu simulated rounds — the join cost is a small additive\n"
              "polylog prefix, exactly as Section 6 suggests.\n",
              net.rounds());
  return 0;
}
