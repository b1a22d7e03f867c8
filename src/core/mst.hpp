// Minimum Spanning Tree (Section 3): O(log^4 n) rounds, w.h.p.
//
// Boruvka with Heads/Tails clustering. Each component C keeps a leader and a
// multicast tree over its members; per Boruvka phase:
//   1. the leader coin-flips and multicasts the result;
//   2. the leader finds the component's lightest outgoing edge with the
//      FindMin sketch search of King–Kutten–Thorup: binary search over the
//      (weight ◦ endpoint-ids) key space, each step answered by XOR sketches
//      of the directed arc identifiers aggregated (mod 2) to the leader —
//      h_up(C) != h_down(C) in some trial iff an outgoing edge has its key in
//      the probed range;
//   3. if C flipped Tails and the neighbor component C' flipped Heads, the
//      endpoint u of the lightest edge {u, v} learns l(C') by joining the
//      multicast group A_{id(v)}, reports it to its leader, and C merges into
//      C' (only u learns that {u, v} is an MST edge, per the paper);
//   4. component multicast trees are rebuilt for the merged components.
//
// Note on trial packing: the paper repeats each sketch comparison O(log n)
// times sequentially; since a message carries O(log n) bits, we pack the
// O(log n) one-bit trials of a comparison into a single message word, which
// is model-legal and shaves a log factor off the constant of the O(log^4 n)
// bound. The sketch bits of each directed arc are computed once per phase:
// node-local work, so it costs no rounds or messages in the model.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "net/network.hpp"
#include "primitives/context.hpp"

namespace ncc {

struct MstParams {
  /// Sketch trials per comparison (bits packed into one word). The failure
  /// probability of one comparison is 2^-trials.
  uint32_t trials = 40;
  /// FindMin search arity (footnote 3: the original FindMin of [35] uses a
  /// "Theta(log n)-ary" search; the paper presents binary for simplicity).
  /// Arity A probes A subranges per iteration by packing A sketch groups of
  /// min(trials, 64/A) bits each into the aggregate, cutting the iteration
  /// count from log2(range) to log_A(range). Supported: 2..8; keep A <= 4
  /// (>= 16 bits per subrange) unless you accept occasional missed minima —
  /// the A5 ablation quantifies the cliff.
  uint32_t search_arity = 2;
};

struct MstResult {
  /// MST/MSF edges; edge {u,v} is known to exactly one endpoint (the paper's
  /// guarantee) — `known_by` records which.
  std::vector<Edge> edges;
  std::vector<NodeId> known_by;
  uint64_t total_weight = 0;
  uint32_t phases = 0;
  uint64_t rounds = 0;

  /// Final component leader per node (one component per connected component
  /// of G when the algorithm terminates).
  std::vector<NodeId> leader;
};

/// Computes a minimum spanning forest of g. Requires n <= 2^16 and edge
/// weights <= 2^20 (the 52-bit FindMin search key; W = poly(n) in the paper).
MstResult run_mst(const Shared& shared, Network& net, const Graph& g,
                  const MstParams& params = {}, uint64_t rng_tag = 0);

}  // namespace ncc
