// Combining random-rank routing on an emulated overlay (Appendix B,
// generalized from the butterfly to any Overlay): `route_down` is the
// Combining Phase of the Aggregation Algorithm (packets travel from level 0 to
// their group's target h(group) at the final level, combining; optionally
// recording multicast trees, Theorem 2.4) and `route_up` the Spreading Phase
// of the Multicast Algorithm (payloads copied from the tree roots along the
// recorded edges). Both are one phase machine run in opposite directions
// (docs/ARCHITECTURE.md, "Router phase machine"): per directed edge one packet
// moves per round, smallest random rank rho(group) first, ties by group id.
//
// Termination detection is simulated faithfully with the paper's token
// scheme (a node forwards its token on an edge only once it can never send
// another packet on it), so the reported round counts include the detection
// overhead. Token delivery is idempotent (receivers track in-edges as a
// bitmask): on rounds where the routing makes no progress at all (possible
// only under fault injection — a reliable network moves a packet or token
// every round), nodes re-send the tokens they already launched, so a healed
// partition or a lossy link stalls the drain instead of jamming it forever.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "net/network.hpp"
#include "overlay/overlay.hpp"

namespace ncc {

class CombiningCache;  // overlay/cache.hpp

/// Aggregate value carried by a packet: two 64-bit words (an edge identifier
/// plus a counter/weight — the widest aggregate the paper's algorithms use).
using Val = std::array<uint64_t, 2>;

using CombineFn = std::function<Val(const Val&, const Val&)>;

/// Standard distributive aggregate functions (Section 2.1).
namespace agg {
inline Val sum(const Val& a, const Val& b) { return {a[0] + b[0], a[1] + b[1]}; }
Val min_by_first(const Val& a, const Val& b);
Val max_by_first(const Val& a, const Val& b);
/// XOR first word, sum second — the Identification Algorithm's sketch.
Val xor_count(const Val& a, const Val& b);
/// (XOR, XOR) of both words mod nothing — FindMin's mod-2 sketches pack here.
Val xor_xor(const Val& a, const Val& b);
}  // namespace agg

struct AggPacket {
  uint64_t group = 0;
  Val val{};
};

/// Multicast trees produced by route_down with recording enabled
/// (Theorem 2.4). `children[index(level, col)]` lists one (group, mask) pair
/// per group whose tree passes routing state (level, col): the bitmask of
/// recorded up-edges (bit e = down-edge e of the level below, reversed) that
/// lead toward its recorded leaves. A state holds one pair per group that
/// visits it (at most the congestion), so the list is unsorted and searched
/// linearly; read and write it through child_mask() and add_child().
/// `leaf_members[col]` lists (group, member) pairs whose leaf
/// l(group, member) is the level-0 node of column `col`.
struct MulticastTrees {
  uint32_t levels = 0;  // routing levels of the overlay that recorded them
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children;
  FlatMap<NodeId> root_col;  // group -> final-level column
  std::vector<std::vector<std::pair<uint64_t, NodeId>>> leaf_members;
  uint32_t congestion = 0;  // max #groups sharing one overlay node

  /// A tree-setup request answered by the en-route combining cache
  /// (overlay/cache.hpp): the request of `group` deposited at routing state
  /// `idx` while the state held the group's payload, so the subtree recorded
  /// below idx (`mask`, the up-edge bits snapshotted-and-cleared from
  /// child_mask(idx, group) at hit time) is served by injecting the cached
  /// payload `val` at idx during route_up instead of descending from the
  /// group root.
  /// Deduplicated per (idx, group): later hits OR their masks in.
  struct CacheRoot {
    uint64_t group = 0;
    uint64_t idx = 0;  // routing-state index (level * columns + column)
    Val val{};
    uint64_t mask = 0;  // up-edges to serve; 0 only at level 0 (leaf-local hit)
  };
  std::vector<CacheRoot> cache_roots;

  /// The recorded up-edge mask of `group` at routing state `idx`, or
  /// nullptr if the group's tree never reached that state.
  uint64_t* child_mask(uint64_t idx, uint64_t group);
  const uint64_t* child_mask(uint64_t idx, uint64_t group) const;
  /// OR `bits` into the mask of `group` at routing state `idx`.
  void add_child(uint64_t idx, uint64_t group, uint64_t bits);
};

struct RouteStats {
  uint64_t rounds = 0;       // NCC rounds consumed by this engine run
  uint32_t congestion = 0;   // max distinct groups visiting one overlay node
  uint64_t packets_moved = 0;
  uint64_t combines = 0;
  /// Up-phase payloads skipped because the tree build never recorded a root
  /// for their group. Impossible on a reliable network (the tree-recording
  /// invariant); nonzero only under scenario fault injection, where the
  /// membership packets of a group can all be lost.
  uint64_t lost_groups = 0;
  /// Packets dropped because they arrived somewhere their group does not
  /// belong: a final-level deposit at the wrong root column (down phase) or
  /// an arrival off the group's recorded tree (up phase). Impossible on a
  /// reliable network; nonzero only under byzantine payload corruption, which
  /// can rewrite a packet's group id in flight.
  uint64_t misrouted = 0;
  /// Token retransmissions fired by the stall heartbeat (see file comment).
  /// Always zero on a reliable network.
  uint64_t token_resends = 0;
  /// En-route combining cache traffic (zero unless a CombiningCache was
  /// passed): requests answered at a caching state / lookups that fell
  /// through / entries displaced by admission or arming.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
};

struct DownResult {
  /// Final aggregate per group, held by the final-level node of column
  /// root_col[group] (host = that column's real node). FlatMap so consumers
  /// either look groups up or drain in slot order, which is a pure function
  /// of the insertion history — deterministic because the deposit loop that
  /// populates it runs in a fixed order per round.
  FlatMap<Val> root_values;
  FlatMap<NodeId> root_col;
  RouteStats stats;
};

/// The routing tables route_down/route_up fill during a call — per-state
/// packet queues, per-node congestion lists, token masks, the round loop's
/// step buffers — kept between calls so later calls on the same overlay run
/// their rounds without allocating. Caller-thread state: one call at a time
/// (each run's Shared owns one).
class RouterWorkspace {
 public:
  RouterWorkspace();
  ~RouterWorkspace();
  RouterWorkspace(RouterWorkspace&&) noexcept;
  RouterWorkspace& operator=(RouterWorkspace&&) noexcept;

  struct Tables;  // defined in router.cpp
  Tables& tables();
  /// Drop the tables (a call whose tables grew past the keep limit does).
  void release();

 private:
  std::unique_ptr<Tables> tables_;
};

/// Route packets from level 0 to their groups' final-level targets,
/// combining, with `ws` supplying the routing tables (see RouterWorkspace;
/// results never depend on what a workspace held). `at_col[c]` holds the
/// packets already injected at level-0 column c. `dest_col(group)` gives
/// h(group) in [0, 2^d); `rank(group)` the random rank rho(group). If `record` is non-null, tree edges and congestion
/// are recorded into it (leaf_members must be pre-filled by the caller).
/// `cache`, if non-null, enables en-route combining (overlay/cache.hpp): with
/// `record` set (tree setup) deposits are served from cached payloads and
/// recorded as `record->cache_roots`; without it (pure aggregation) deposits
/// park in absorbers and re-enter the descent at token completion. All cache
/// traffic lands in the stats' cache_* counters.
DownResult route_down(const Overlay& topo, Network& net, RouterWorkspace& ws,
                      std::vector<std::vector<AggPacket>> at_col,
                      const std::function<NodeId(uint64_t)>& dest_col,
                      const std::function<uint64_t(uint64_t)>& rank,
                      const CombineFn& combine, MulticastTrees* record = nullptr,
                      CombiningCache* cache = nullptr);

struct UpResult {
  /// Packets delivered to level-0 leaf nodes: per column, (group, value).
  std::vector<std::vector<AggPacket>> at_col;
  RouteStats stats;
};

/// Multicast payloads from the tree roots (final level) up to the recorded
/// leaves. `payloads` maps group -> packet value; every group must have a
/// root recorded in `trees`. Cache roots recorded in `trees` are additionally
/// served by injecting their cached payloads mid-overlay; `cache`, if
/// non-null, admits every payload arrival so later setup descents can hit.
/// `ws` as for route_down.
UpResult route_up(const Overlay& topo, Network& net, RouterWorkspace& ws,
                  const MulticastTrees& trees, const FlatMap<Val>& payloads,
                  const std::function<uint64_t(uint64_t)>& rank,
                  CombiningCache* cache = nullptr);

}  // namespace ncc
