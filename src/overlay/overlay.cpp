#include "overlay/overlay.hpp"

namespace ncc {

namespace {

const struct {
  OverlayKind kind;
  const char* name;
} kOverlays[] = {
    {OverlayKind::kButterfly, "butterfly"},
    {OverlayKind::kHypercube, "hypercube"},
    {OverlayKind::kAugmentedCube, "augmented_cube"},
    {OverlayKind::kRadix4Butterfly, "radix4_butterfly"},
};

NodeId e(uint32_t i) { return NodeId{1} << i; }

}  // namespace

const char* overlay_name(OverlayKind kind) {
  for (const auto& o : kOverlays)
    if (o.kind == kind) return o.name;
  return "?";
}

std::optional<OverlayKind> overlay_from_name(const std::string& name) {
  for (const auto& o : kOverlays)
    if (name == o.name) return o.kind;
  return std::nullopt;
}

const std::vector<OverlayKind>& all_overlay_kinds() {
  static const std::vector<OverlayKind> kinds = [] {
    std::vector<OverlayKind> out;
    for (const auto& o : kOverlays) out.push_back(o.kind);
    return out;
  }();
  return kinds;
}

Overlay::Overlay(OverlayKind kind, NodeId n)
    : kind_(kind), n_(n), dims_(floor_log2(n)), columns_(NodeId{1} << dims_),
      seed_depth_(cap_log(n)) {
  NCC_ASSERT(n >= 2);
  const uint32_t d = dims_;
  for (uint32_t i = 0; i < d; ++i) gens_.push_back(e(i));
  switch (kind) {
    case OverlayKind::kButterfly:
    case OverlayKind::kHypercube:
      // Bit fixing: level l (and merge step l) flips bit l only.
      levels_are_nodes_ = kind == OverlayKind::kButterfly;
      for (uint32_t l = 0; l < d; ++l) route_.add_row({e(l)});
      agg_ = route_;
      break;
    case OverlayKind::kAugmentedCube:
      // AQ_d: the suffix complements s_j (s_0 == e_0), and every level and
      // merge step offers all 2d-1 generators; ceil((d+1)/2) steps is the
      // AQ_d diameter, so the seed broadcast rides this shallower tree.
      for (uint32_t j = 1; j < d; ++j) gens_.push_back((NodeId{2} << j) - 1);
      for (uint32_t l = 0; l < ceil_div(d + 1, 2); ++l) route_.add_row(gens_);
      agg_ = route_;
      seed_depth_ = agg_steps();
      break;
    case OverlayKind::kRadix4Butterfly:
      // Level l owns the dimension pair {2l, 2l+1} and offers e_{2l},
      // e_{2l+1} and their product, fixing both bits in one step; an odd d's
      // last level owns the lone e_{d-1}. Aggregation keeps the binary tree.
      levels_are_nodes_ = true;
      for (uint32_t l = 0; 2 * l + 1 < d; ++l) {
        gens_.push_back(NodeId{3} << (2 * l));
        route_.add_row({e(2 * l), e(2 * l + 1), NodeId{3} << (2 * l)});
      }
      if (d % 2) route_.add_row({e(d - 1)});
      for (uint32_t i = 0; i < d; ++i) agg_.add_row({e(i)});
      break;
  }
}

}  // namespace ncc
