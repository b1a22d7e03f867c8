#include "graph/orientation.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ncc {

Orientation::Orientation(const Graph& g)
    : g_(&g), dir_(g.m(), 0), unoriented_(g.m()) {}

uint64_t Orientation::slot(NodeId u, NodeId v) const {
  Edge key(u, v);
  const auto& edges = g_->edges();
  auto it = std::lower_bound(edges.begin(), edges.end(), key);
  NCC_ASSERT_MSG(it != edges.end() && *it == key, "orientation of a non-edge");
  return static_cast<uint64_t>(it - edges.begin());
}

void Orientation::orient(NodeId u, NodeId v) {
  uint64_t s = slot(u, v);
  NCC_ASSERT_MSG(dir_[s] == 0, "edge oriented twice");
  const Edge& e = g_->edges()[s];
  dir_[s] = (e.u == u) ? 1 : 2;
  --unoriented_;
  lists_dirty_ = true;
}

bool Orientation::is_oriented(NodeId u, NodeId v) const { return dir_[slot(u, v)] != 0; }

bool Orientation::directed_from(NodeId u, NodeId v) const {
  uint64_t s = slot(u, v);
  NCC_ASSERT_MSG(dir_[s] != 0, "edge not oriented yet");
  const Edge& e = g_->edges()[s];
  return dir_[s] == ((e.u == u) ? 1 : 2);
}

void Orientation::rebuild_lists() const {
  if (!lists_dirty_) return;
  out_.assign(g_->n(), {});
  in_deg_.assign(g_->n(), 0);
  const auto& edges = g_->edges();
  for (uint64_t i = 0; i < edges.size(); ++i) {
    if (dir_[i] == 0) continue;
    NodeId from = dir_[i] == 1 ? edges[i].u : edges[i].v;
    NodeId to = dir_[i] == 1 ? edges[i].v : edges[i].u;
    out_[from].push_back(to);
    ++in_deg_[to];
  }
  for (auto& v : out_) std::sort(v.begin(), v.end());
  lists_dirty_ = false;
}

std::span<const NodeId> Orientation::out_neighbors(NodeId u) const {
  rebuild_lists();
  return out_[u];
}

uint32_t Orientation::outdegree(NodeId u) const {
  rebuild_lists();
  return static_cast<uint32_t>(out_[u].size());
}

uint32_t Orientation::indegree(NodeId u) const {
  rebuild_lists();
  return in_deg_[u];
}

uint32_t Orientation::max_outdegree() const {
  uint32_t k = 0;
  for (NodeId u = 0; u < g_->n(); ++u) k = std::max(k, outdegree(u));
  return k;
}

bool is_valid_k_orientation(const Orientation& o, uint32_t k) {
  if (!o.complete()) return false;
  return o.max_outdegree() <= k;
}

}  // namespace ncc
