// The overlay-topology layer: the emulated communication structure the NCC
// primitives route over (Section 2.2 defines it for the butterfly).
//
// Every overlay here is a Cayley graph of Z_2^d (d = floor(log2 n) column
// bits, column c hosted by real node c) given by XOR generators, so one class
// describes all of them as data. Per kind the constructor fills in S, the
// ordered Cayley generator list (column_neighbors order, which fixes overlay
// join's message order); an ordered edge list per routing level (edge 0 the
// identity, edge e >= 1 XORs the e-th generator); a generator list per A&B
// merge step; whether the levels are distinct nodes (congestion accounting);
// and seed_depth, the depth term of the seed broadcast's cost.
//
// One greedy rule drives both tables: from delta, take the edge whose
// generator g minimises delta ^ g, or edge 0 if no generator lowers delta.
// route_edge applies it to delta = col ^ dest, agg_parent to delta = col
// (route to column 0). Distinct generators give distinct delta ^ g, so the
// argmin never ties. With e_i = 2^i and s_j = 2^{j+1} - 1:
//
//   kind              S                level l edges          agg step i  nodes
//   butterfly         e_0..e_{d-1}     {e_l}                  {e_i}       yes
//   hypercube         e_0..e_{d-1}     {e_l}                  {e_i}       no
//   augmented_cube    e_0..e_{d-1},    S, at each of          S           no
//                     s_1..s_{d-1}     ceil((d+1)/2) levels
//   radix4_butterfly  e_0..e_{d-1},    {e_2l, e_2l+1, 3<<2l}  {e_i}       yes
//                     3<<2l ascending  ({e_{d-1}} last, d odd)
//
// The hypercube is the time-unrolled butterfly (same column dynamics, levels
// collapsed onto 2^d vertices); AQ_d (Choudum–Sunitha; Ganesan,
// arXiv:1508.07257) routes and aggregates in about half the levels at a 2d-1
// degree. docs/ARCHITECTURE.md "Overlays as generator tables" shows why the
// rule reproduces each overlay's closed-form routing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "graph/graph.hpp"

namespace ncc {

enum class OverlayKind { kButterfly, kHypercube, kAugmentedCube, kRadix4Butterfly };

const char* overlay_name(OverlayKind kind);
std::optional<OverlayKind> overlay_from_name(const std::string& name);
/// All kinds, in a fixed order (iteration in tests and benches).
const std::vector<OverlayKind>& all_overlay_kinds();

class Overlay final {
 public:
  Overlay(OverlayKind kind, NodeId n);

  OverlayKind kind() const { return kind_; }

  NodeId n() const { return n_; }
  uint32_t dims() const { return dims_; }      // d: column address bits
  NodeId columns() const { return columns_; }  // 2^d

  /// Routing levels (states 0..levels()-1; levels()-1 routing steps).
  uint32_t levels() const { return route_.rows() + 1; }

  /// Real node hosting column `col`.
  NodeId host(NodeId col) const {
    NCC_ASSERT(col < columns_);
    return col;
  }

  /// True if real node `u` hosts an overlay column.
  bool emulates(NodeId u) const { return u < columns_; }

  /// Attachment column for a non-hosting real node (id >= 2^d).
  NodeId attach_column(NodeId u) const {
    NCC_ASSERT(!emulates(u));
    return u - columns_;
  }

  /// Down-edges leaving a node at `level` (0 <= level < levels()-1): edge 0
  /// is the free straight edge, edges 1..down_degree-1 are message edges.
  uint32_t down_degree(uint32_t level) const { return route_.width(level); }

  /// Column reached from (level, col) along down-edge `edge`.
  NodeId down_column(uint32_t level, NodeId col, uint32_t edge) const {
    NCC_ASSERT(edge < down_degree(level));
    return col ^ route_.row(level)[edge];
  }

  /// Column reached from (level, col) along the reverse of down-edge `edge`
  /// of level-1 (generators are involutions, so the reverse reuses it).
  NodeId up_column(uint32_t level, NodeId col, uint32_t edge) const {
    NCC_ASSERT(level >= 1);
    return down_column(level - 1, col, edge);
  }

  /// The down-edge the greedy route from `col` toward `dest` takes at
  /// `level`. Following this rule from any level-0 column reaches `dest` by
  /// level levels()-1 (asserted by the routing layer).
  uint32_t route_edge(uint32_t level, NodeId col, NodeId dest) const {
    return route_.greedy(level, col ^ dest);
  }

  /// The cross down-edge of `level` whose generator is `delta` (the XOR of
  /// the edge's two endpoint columns); asserts that `delta` is one of the
  /// level's generators. The routing layer uses this to derive a token's
  /// in-edge from the message's transport framing (src and dst are network
  /// truth), which keeps token bookkeeping immune to byzantine payload
  /// corruption.
  uint32_t edge_from_delta(uint32_t level, NodeId delta) const {
    const NodeId* gens = route_.row(level);
    uint32_t e = 1;
    while (e < down_degree(level) && gens[e] != delta) ++e;
    NCC_ASSERT(e < down_degree(level));
    return e;
  }

  /// Flat index of routing state (level, col) for per-state arrays.
  uint64_t index(uint32_t level, NodeId col) const {
    NCC_ASSERT(level < levels() && col < columns_);
    return static_cast<uint64_t>(level) * columns_ + col;
  }
  uint64_t node_count() const {
    return static_cast<uint64_t>(levels()) * columns_;
  }

  /// The emulated overlay-graph node backing routing state (level, col) —
  /// the unit per-node congestion is accounted against.
  uint64_t overlay_node(uint32_t level, NodeId col) const {
    return levels_are_nodes_ ? index(level, col) : col;
  }
  uint64_t overlay_node_count() const {
    return levels_are_nodes_ ? node_count() : columns_;
  }

  /// Distinct columns adjacent to `col` in the emulated overlay graph, in
  /// generator order (drives overlay join and the structural tests: Q_d has
  /// d neighbors, AQ_d has 2d-1).
  std::vector<NodeId> column_neighbors(NodeId col) const {
    std::vector<NodeId> out;
    out.reserve(gens_.size());
    for (NodeId g : gens_) out.push_back(col ^ g);
    return out;
  }

  // --- Aggregation tree ------------------------------------------------
  // The path system Aggregate-and-Broadcast (and therefore sync_barrier)
  // walks: iterating agg_parent over steps 0..agg_steps()-1 moves every
  // column's value to column 0, and the broadcast phase replays the steps in
  // reverse along the same edges (child-major: each column asks its parent).

  /// Merge steps of the aggregation tree (the broadcast phase replays them,
  /// so a full A&B costs 2*agg_steps() + 2 rounds).
  uint32_t agg_steps() const { return agg_.rows(); }

  /// Column the value at `col` merges into at `step` (== col: hold still).
  NodeId agg_parent(uint32_t step, NodeId col) const {
    NCC_ASSERT(col < columns_);
    return col ^ agg_.row(step)[agg_.greedy(step, col)];
  }

  /// Charged round cost of the pipelined shared-randomness broadcast
  /// (Section 2.2: node 0 pushes `words` words of generator seeds to
  /// everyone): 2*seed_depth rounds of tree depth plus one round per
  /// ceil(log n) words of pipeline. The depth is the seed model's
  /// ceil(log n), or the aggregation-tree depth where that tree is shallower
  /// (the augmented cube), so the cost accounting matches the topology.
  uint64_t seed_broadcast_rounds(uint32_t words) const {
    return 2ull * seed_depth_ + ceil_div(words, cap_log(n_));
  }

 private:
  /// Ordered per-row generator lists stored flat: row r is
  /// gens[off[r] .. off[r+1]) and starts with the identity, so edge e of a
  /// row is one load and one XOR.
  struct Table {
    std::vector<NodeId> gens;
    std::vector<uint32_t> off{0};

    void add_row(const std::vector<NodeId>& row) {
      gens.push_back(0);  // edge 0: the identity (straight edge / hold still)
      gens.insert(gens.end(), row.begin(), row.end());
      off.push_back(static_cast<uint32_t>(gens.size()));
    }
    uint32_t rows() const { return static_cast<uint32_t>(off.size()) - 1; }
    uint32_t width(uint32_t r) const {
      NCC_ASSERT(r < rows());
      return off[r + 1] - off[r];
    }
    const NodeId* row(uint32_t r) const { return gens.data() + off[r]; }

    /// The greedy rule on row r: the edge minimising delta ^ row(r)[e]
    /// (0, the identity, when nothing lowers delta).
    uint32_t greedy(uint32_t r, NodeId delta) const {
      uint32_t best = 0;
      for (uint32_t e = 1, w = width(r); e < w; ++e)
        if ((delta ^ row(r)[e]) < (delta ^ row(r)[best])) best = e;
      return best;
    }
  };

  OverlayKind kind_;
  NodeId n_;
  uint32_t dims_;
  NodeId columns_;
  std::vector<NodeId> gens_;  // S, the Cayley generator list
  Table route_;
  Table agg_;
  bool levels_are_nodes_ = false;
  uint32_t seed_depth_;
};

/// Factory used by Shared and the scenario layer.
inline std::unique_ptr<Overlay> make_overlay(OverlayKind kind, NodeId n) {
  return std::make_unique<Overlay>(kind, n);
}

}  // namespace ncc
