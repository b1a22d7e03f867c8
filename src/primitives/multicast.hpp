// Multicast Tree Setup (Theorem 2.4) and Multicast (Theorem 2.5).
//
// Setup: every member u of multicast group A_i injects an empty packet at a
// uniformly random level-0 butterfly node l(i, u); the packets are aggregated
// toward h(i) at level d and every butterfly node records the edges packets
// of group i arrived over — those edges form the multicast tree T_i.
//
// Multicast: each source s_i sends its packet p_i to the root h(i); packets
// are copied up the recorded trees under the random-rank contention rule and
// finally delivered from the leaves l(i, u) to the members u in random rounds.
#pragma once

#include <vector>

#include "overlay/router.hpp"
#include "net/network.hpp"
#include "primitives/context.hpp"

namespace ncc {

struct MulticastMembership {
  NodeId member;
  uint64_t group;
  /// Node that injects the membership packet into the butterfly; defaults to
  /// the member itself. The broadcast-tree construction of Lemma 5.1 has the
  /// *out*-endpoint of every oriented edge inject both memberships of the
  /// edge, which is what keeps the star graph's center at O(a) injections.
  NodeId injector = kSelf;

  static constexpr NodeId kSelf = UINT32_MAX;
  NodeId injecting_node() const { return injector == kSelf ? member : injector; }
};

struct MulticastSetupResult {
  MulticastTrees trees;
  uint64_t rounds = 0;
  RouteStats route;
};

/// Build multicast trees for the given memberships. `ell1_hat` is a bound
/// every node knows on the memberships any one node injects, or 0 for none
/// known; with a bound the injection needs no barrier (exchange.hpp).
/// `cache`, if non-null, serves setup requests from cached payloads
/// (overlay/cache.hpp): hits terminate the descent and are recorded as
/// trees.cache_roots for the next run_multicast over the same cache.
MulticastSetupResult setup_multicast_trees(const Shared& shared, Network& net,
                                           const std::vector<MulticastMembership>& members,
                                           uint32_t ell1_hat, uint64_t rng_tag = 0,
                                           CombiningCache* cache = nullptr);

/// One multicast: `source` sends `payload` to every member of `group`. A
/// node may source any number of groups.
struct MulticastSend {
  uint64_t group;
  NodeId source;
  Val payload;
};

struct MulticastResult {
  /// Per real node: (group, payload) pairs received.
  std::vector<std::vector<AggPacket>> received;
  uint64_t rounds = 0;
  RouteStats route;
};

/// Multicast each send's payload to all members recorded in `trees`.
/// `ell_hat` is the known upper bound on the number of groups any node
/// belongs to (paper's l-hat; controls the leaf-delivery spreading).
/// Sources hand their payloads to the tree roots ceil(log n) per round (the
/// extension remarked after Theorem 2.5); the paper's single-source variant
/// is the case of at most one send per node, which takes one handoff round.
MulticastResult run_multicast(const Shared& shared, Network& net,
                              const MulticastTrees& trees,
                              const std::vector<MulticastSend>& sends, uint32_t ell_hat,
                              uint64_t rng_tag = 0, CombiningCache* cache = nullptr);

}  // namespace ncc
