// Shared execution context for the communication primitives: the emulated
// overlay plus the common (pseudo-)random hash functions all nodes know.
//
// The paper bootstraps shared randomness by letting node 0 broadcast
// Theta(log^2 n) random bits through the overlay (Section 2.2); we model
// the bits as generator seeds and charge the broadcast cost explicitly via
// `charge_hash_setup`. The overlay is pluggable (src/overlay/): the paper's
// butterfly by default, the hypercube Q_d or the augmented cube AQ_d when the
// scenario asks for them — the primitives only touch the Overlay surface.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
// Every primitive/algorithm sees the tracing layer through its context: the
// obs::Span guard is a no-op unless a Tracer is attached to the network.
#include "obs/tracer.hpp"
#include "overlay/overlay.hpp"
#include "primitives/aggregate_broadcast.hpp"

namespace ncc {

class Shared {
 public:
  Shared(NodeId n, uint64_t seed, OverlayKind overlay = OverlayKind::kButterfly)
      : topo_(make_overlay(overlay, n)),
        seed_(seed),
        h_dest_(2 * cap_log(n), make_rng(seed, 0xd357)),
        h_rank_(2 * cap_log(n), make_rng(seed, 0x4a9c)),
        inject_rng_(mix64(seed ^ 0x1439ab5f00d5ULL)) {}

  const Overlay& topo() const { return *topo_; }
  uint64_t seed() const { return seed_; }

  /// Intermediate target h(group): a uniform final-level overlay column.
  NodeId dest_col(uint64_t group) const {
    return static_cast<NodeId>(h_dest_.to_range(group, topo_->columns()));
  }

  /// Random rank rho(group) for the contention rule (effective K = 2^61-1,
  /// which satisfies the K >= 8C requirement of Theorem B.2 at any load).
  uint64_t rank(uint64_t group) const { return h_rank_(group); }

  /// The run's A&B and router scratch: every aggregate_and_broadcast and
  /// sync_barrier of the run shares the first, every route_down/route_up the
  /// second, so their rounds allocate nothing. Per-run scratch, hence
  /// mutable on the otherwise read-only context.
  BarrierWorkspace& barrier_workspace() const { return barrier_ws_; }
  RouterWorkspace& router_workspace() const { return router_ws_; }

  /// Node-local randomness (injection targets, random send rounds). Forked
  /// per use-site tag so unrelated draws do not perturb each other.
  Rng local_rng(uint64_t tag) const { return inject_rng_.fork(tag); }

  /// Derive an extra shared hash family (FindMin sketches, Identification
  /// trials) and charge the pipelined overlay broadcast of its seeds. The
  /// cost is the overlay's, not a fixed butterfly formula: the depth term is
  /// the overlay's aggregation-tree depth (the augmented cube broadcasts the
  /// seeds in about half the rounds), the bandwidth term one round per
  /// ceil(log n) words of randomness.
  HashFamily make_family(Network& net, uint64_t tag, uint32_t count, uint32_t k) const {
    HashFamily fam(count, k, mix64(seed_ ^ tag));
    net.charge_rounds(topo_->seed_broadcast_rounds(fam.randomness_words()));
    return fam;
  }

 private:
  static Rng make_rng(uint64_t seed, uint64_t tag) { return Rng(mix64(seed ^ tag)); }
  // KWiseHash wants an lvalue Rng; small helper keeps the members const-free.
  std::unique_ptr<Overlay> topo_;  // Shared is move-only; algorithms hold refs
  uint64_t seed_;
  KWiseHash h_dest_;
  KWiseHash h_rank_;
  Rng inject_rng_;
  mutable BarrierWorkspace barrier_ws_;
  mutable RouterWorkspace router_ws_;
};

}  // namespace ncc
