// Edge orientations (Section 2.1 / Section 4). An orientation assigns every
// edge {u, v} a direction u->v or v->u; a k-orientation has max outdegree k.
// The Orientation Algorithm of Section 4 produces an O(a)-orientation together
// with the level partition L_1..L_T of the Nash-Williams-style peeling, which
// the O(a)-coloring algorithm consumes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ncc {

class Orientation {
 public:
  explicit Orientation(const Graph& g);

  /// Direct edge {u, v} as u -> v. The edge must exist and be undirected so far.
  void orient(NodeId u, NodeId v);

  bool is_oriented(NodeId u, NodeId v) const;
  /// True iff edge is directed u -> v (asserts the edge is oriented).
  bool directed_from(NodeId u, NodeId v) const;

  std::span<const NodeId> out_neighbors(NodeId u) const;
  uint32_t outdegree(NodeId u) const;
  uint32_t indegree(NodeId u) const;
  uint32_t max_outdegree() const;

  /// Number of edges still undirected.
  uint64_t unoriented_count() const { return unoriented_; }
  bool complete() const { return unoriented_ == 0; }

  const Graph& graph() const { return *g_; }

 private:
  uint64_t slot(NodeId u, NodeId v) const;  // index into edge-order arrays

  const Graph* g_;
  // Per canonical edge (index in g_->edges()): 0 = unoriented, 1 = u->v, 2 = v->u.
  std::vector<uint8_t> dir_;
  uint64_t unoriented_;
  // Materialized out-neighbor lists and indegrees, rebuilt lazily.
  mutable bool lists_dirty_ = true;
  mutable std::vector<std::vector<NodeId>> out_;
  mutable std::vector<uint32_t> in_deg_;
  void rebuild_lists() const;
};

/// Validation used by tests: every edge oriented, outdegree bound respected.
bool is_valid_k_orientation(const Orientation& o, uint32_t k);

}  // namespace ncc
