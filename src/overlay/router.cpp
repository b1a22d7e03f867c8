#include "overlay/router.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "overlay/cache.hpp"
#include "engine/engine.hpp"
#include "obs/flow.hpp"
#include "obs/tracer.hpp"

namespace ncc {

namespace agg {
Val sum(const Val& a, const Val& b) { return {a[0] + b[0], a[1] + b[1]}; }
Val min_by_first(const Val& a, const Val& b) {
  if (a[0] != b[0]) return a[0] < b[0] ? a : b;
  return a[1] <= b[1] ? a : b;  // deterministic tie-break on second word
}
Val max_by_first(const Val& a, const Val& b) {
  if (a[0] != b[0]) return a[0] > b[0] ? a : b;
  return a[1] >= b[1] ? a : b;
}
Val xor_count(const Val& a, const Val& b) { return {a[0] ^ b[0], a[1] + b[1]}; }
Val xor_xor(const Val& a, const Val& b) { return {a[0] ^ b[0], a[1] ^ b[1]}; }
}  // namespace agg

namespace {

// Message tags (low byte carries the destination routing level).
constexpr uint32_t kTagDownPacket = 0x0100;
constexpr uint32_t kTagDownToken = 0x0200;
constexpr uint32_t kTagUpPacket = 0x0300;
constexpr uint32_t kTagUpToken = 0x0400;

constexpr uint32_t tag_kind(uint32_t tag) { return tag & 0xff00u; }
constexpr uint32_t tag_level(uint32_t tag) { return tag & 0x00ffu; }

// Down-edge degrees can reach 2d <= 62 (augmented cube), so per-node edge
// masks are uint64_t and this is the hard ceiling a new overlay must respect.
constexpr uint32_t kMaxDegree = 62;

/// Priority of a group under the contention rule: smallest rank first, ties
/// broken by smallest group id (Appendix B.2).
struct Prio {
  uint64_t rank;
  uint64_t group;
  bool operator<(const Prio& o) const {
    return rank != o.rank ? rank < o.rank : group < o.group;
  }
};

/// Per-edge contention winner scratch (indexed by down-edge).
struct EdgeBest {
  bool found = false;
  Prio best{};
};

/// Tracks the max number of distinct groups observed at any overlay node:
/// one call-wide open-addressing set of (overlay node, group) pairs (linear
/// probing, load factor below 3/4, never erased from during a call) and a
/// distinct-group count per overlay node.
class CongestionTracker {
 public:
  /// Start a call over `node_count` overlay nodes. The set is emptied by
  /// starting a new epoch (a slot is live only if stamped with the current
  /// one), so a call pays for the pairs it inserts, not for the capacity
  /// earlier calls left behind; the counts the last call touched are zeroed.
  void reset(uint64_t node_count) {
    NCC_ASSERT(node_count <= UINT32_MAX);
    for (uint32_t i : touched_) count_[i] = 0;
    touched_.clear();
    count_.resize(node_count, 0);
    if (++epoch_ == 0) {  // wrapped: clear the stamps for real
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
    size_ = 0;
    max_ = 0;
  }
  size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot) + count_.capacity() * sizeof(uint32_t) +
           touched_.capacity() * sizeof(uint32_t);
  }

  void visit(uint64_t node_index, uint64_t group) {
    const uint32_t node = static_cast<uint32_t>(node_index);
    if (!insert(node, group)) return;
    if (count_[node]++ == 0) touched_.push_back(node);
    max_ = std::max(max_, count_[node]);
  }
  uint32_t max() const { return max_; }

 private:
  struct Slot {
    uint32_t node = 0;
    uint32_t epoch = 0;  // the call that filled the slot; any other value: empty
    uint64_t group = 0;
  };
  static constexpr size_t kInitialSlots = 64;

  size_t home(uint32_t node, uint64_t group) const {
    return static_cast<size_t>(mix64(group + node * 0x9e3779b97f4a7c15ULL)) & (slots_.size() - 1);
  }
  /// Add (node, group); false if the pair was already present.
  bool insert(uint32_t node, uint64_t group) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    for (size_t i = home(node, group);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s = {node, epoch_, group};
        ++size_;
        return true;
      }
      if (s.node == node && s.group == group) return false;
    }
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max(kInitialSlots, 2 * old.size()), Slot{});
    for (const Slot& s : old) {
      if (s.epoch != epoch_) continue;
      size_t i = home(s.node, s.group);
      while (slots_[i].epoch == epoch_) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;        // live pairs of this call
  uint32_t epoch_ = 0;     // current call; slots start at 0, so never live
  std::vector<uint32_t> count_;    // distinct groups per overlay node
  std::vector<uint32_t> touched_;  // nodes whose count is non-zero
  uint32_t max_ = 0;
};

/// Deduplicated worklist of routing-state indices; only nodes with work are
/// visited each round, which keeps a round's cost proportional to the traffic
/// rather than to the overlay size.
class ActiveSet {
 public:
  void reset(uint64_t node_count) {
    flag_.assign(node_count, false);
    items_.clear();
  }

  void add(uint64_t idx) {
    if (!flag_[idx]) {
      flag_[idx] = true;
      items_.push_back(idx);
    }
  }
  /// Sorted snapshot into `out` for deterministic iteration; clears
  /// membership flags so nodes re-add themselves if they still have work.
  /// The two buffers swap, so a caller reusing `out` every round keeps both
  /// capacities warm.
  void take(std::vector<uint64_t>& out) {
    std::sort(items_.begin(), items_.end());
    for (uint64_t i : items_) flag_[i] = false;
    out.swap(items_);
    items_.clear();
  }
  bool empty() const { return items_.empty(); }

 private:
  std::vector<bool> flag_;
  std::vector<uint64_t> items_;
};

/// A packet or token bound for routing state (level, col): a straight-edge
/// move staged by the step, or an inbox arrival decoded after end_round().
struct Move {
  uint32_t level;  // destination level
  NodeId col;
  uint64_t group;
  Val val;
  bool is_token;
  uint32_t edge = 0;  // token in-edge index
};

/// A multicast-tree edge recorded by route_down: up-edge `bit` of `group` at
/// child state `cidx`.
struct RecordOp {
  uint64_t cidx;
  uint64_t group;
  uint64_t bit;
};

/// One shard's staged cross-node effects of a step, merged in shard order.
struct StepOut {
  std::vector<Message> sends;
  std::vector<Move> local;
  std::vector<RecordOp> rec;
  std::vector<uint64_t> readd;
  uint64_t moved = 0, tokens = 0;
};

/// A routing state's queue entry for one group. `mask` holds the edges the
/// entry still wants: the one edge of the group's greedy route (down phase,
/// fixed when the entry is created) or the recorded up-edges it is still
/// owed on (up phase). `rank` is rho(group), read once at creation, so
/// contention reads nothing outside the queue.
struct Queued {
  uint64_t group;
  Val val;
  uint64_t mask;
  uint64_t rank;
};

/// A state's queue holds one entry per group queued there (at most the
/// congestion), so a group is found by a linear scan; bench_micro's
/// BM_RouteDownHotState times a 1,000-group queue.
Queued* find_queued(std::vector<Queued>& queue, uint64_t group) {
  for (Queued& q : queue)
    if (q.group == group) return &q;
  return nullptr;
}

}  // namespace

/// The routing tables of one call, kept between calls. Every table a call
/// fills is empty again when it returns (queues drain, tokens are re-zeroed
/// at the next begin(), the congestion set is emptied at the next begin()),
/// so a workspace reused on the same overlay re-fills warm capacity. Queue
/// vectors keep their capacity; contend() is a min-reduction over a total
/// order, so the entry order swap-removal leaves behind cannot change a
/// result.
///
/// Tables are kept only while their storage (end() counts every capacity)
/// stays within kKeepBytes. Small overlays stay well under it: the MST
/// benchmark's 448 routing states keep about 85 KiB. Past it — a large
/// overlay (hotkey_cache's 53,248 states need 2.4-3.6 MiB per call), or a
/// call whose congestion set grew under a flood of groups (bfs_gnm's 11,264
/// states, up to 14 MiB) — a call drops them, so the next call re-grows
/// what it needs and memory stays at one call's footprint. Keeping them at
/// every size raised hotkey_cache's max_rss_mb from 16.9 to 19.0 MiB.
struct RouterWorkspace::Tables {
  static constexpr size_t kKeepBytes = size_t{1} << 20;

  /// Size the tables for `topo` and `shards` and start a call. A workspace
  /// whose previous call threw out of its round loop (a round-limit abort)
  /// or ran on another overlay is wiped first.
  void begin(const Overlay& topo, uint32_t shards) {
    const uint64_t states = topo.node_count();
    if (in_call || queues.size() != states) {
      queues.assign(states, {});
      outs.assign(shards, {});
      arrivals.assign(shards, {});
    }
    outs.resize(shards);
    arrivals.resize(shards);
    active.reset(states);
    tokens_recv.assign(states, 0);
    token_sent.assign(states, 0);
    congestion.reset(topo.overlay_node_count());
    if (!meta.empty()) meta.clear();
    if (!rank_cache.empty()) rank_cache.clear();
    in_call = true;
  }
  /// End a call; false when the tables are too big to keep. A completed
  /// call has drained every queue; any entry a fault path left behind is
  /// cleared so the next call starts from empty queues.
  bool end() {
    in_call = false;
    size_t bytes = queues.size() * (sizeof(std::vector<Queued>) + 2 * sizeof(uint64_t)) +
                   congestion.capacity_bytes();
    for (std::vector<Queued>& q : queues) {
      q.clear();
      bytes += q.capacity() * sizeof(Queued);
    }
    return bytes <= kKeepBytes;
  }

  bool in_call = false;
  // Shared by both directions (PhaseCore and run_rounds).
  ActiveSet active;
  std::vector<uint64_t> tokens_recv;
  std::vector<uint64_t> token_sent;
  std::vector<uint64_t> items;             // the active set's sorted snapshot
  std::vector<StepOut> outs;               // per shard
  std::vector<std::vector<Move>> arrivals;  // per shard
  std::vector<Move> local;
  std::vector<std::vector<Queued>> queues;  // per routing state, one entry per group
  // Down phase.
  CongestionTracker congestion;
  FlatMap<std::pair<NodeId, uint64_t>> meta;
  std::vector<CombiningCache::Flushed> flush_buf;
  // Up phase.
  FlatMap<uint64_t> rank_cache;
};

RouterWorkspace::RouterWorkspace() = default;
RouterWorkspace::~RouterWorkspace() = default;
RouterWorkspace::RouterWorkspace(RouterWorkspace&&) noexcept = default;
RouterWorkspace& RouterWorkspace::operator=(RouterWorkspace&&) noexcept = default;

void RouterWorkspace::release() { tables_.reset(); }

RouterWorkspace::Tables& RouterWorkspace::tables() {
  if (!tables_) tables_ = std::make_unique<Tables>();
  return *tables_;
}

namespace {

/// State and level arithmetic shared by both directions. Edge layer l joins
/// levels l and l+1 (the down-edges of level l): a down state at level l
/// sends on layer l and hears tokens on layer l-1, an up state sends on the
/// reversed layer l-1 and hears tokens on layer l. Generators are
/// involutions, so a layer's in-degree equals its out-degree.
template <bool Up>
struct PhaseCore {
  using Result = std::conditional_t<Up, UpResult, DownResult>;
  static constexpr uint32_t kPacketTag = Up ? kTagUpPacket : kTagDownPacket;
  static constexpr uint32_t kTokenTag = Up ? kTagUpToken : kTagDownToken;

  PhaseCore(const Overlay& t, Network& n, CombiningCache* c, RouterWorkspace::Tables& w,
            MulticastTrees* rec = nullptr)
      : topo(t), net(n), F(t.levels() - 1), cols(t.columns()),
        flows(obs::FlowSampler::of(n)), cache(c), record(rec),
        cache_before(c ? c->stats() : CombiningCache::Stats{}), ws(w), active(w.active),
        tokens_recv(w.tokens_recv), token_sent(w.token_sent), queues(w.queues) {
    for (uint32_t l = 0; l < F; ++l) NCC_ASSERT(topo.down_degree(l) <= kMaxDegree);
    NCC_ASSERT(cols == NodeId{1} << t.dims());
  }

  /// Inverse of topo.index(); columns() is 2^dims(), so no division.
  uint32_t level_of(uint64_t idx) const { return static_cast<uint32_t>(idx >> topo.dims()); }
  NodeId col_of(uint64_t idx) const { return static_cast<NodeId>(idx & (cols - 1)); }

  /// Tokens start ready at the source level and terminate at the sink level.
  uint32_t source() const { return Up ? F : 0; }
  uint32_t sink() const { return Up ? 0 : F; }
  static uint32_t next(uint32_t level) { return Up ? level - 1 : level + 1; }
  static uint32_t out_layer(uint32_t level) { return Up ? level - 1 : level; }
  static uint32_t in_layer(uint32_t level) { return Up ? level : level - 1; }
  NodeId next_column(uint32_t level, NodeId col, uint32_t e) const {
    if constexpr (Up) return topo.up_column(level, col, e);
    return topo.down_column(level, col, e);
  }
  uint64_t full_mask(uint32_t layer) const {
    return (uint64_t{1} << topo.down_degree(layer)) - 1;
  }
  bool token_ready(uint32_t level, uint64_t idx) const {
    return level == source() || tokens_recv[idx] == full_mask(in_layer(level));
  }

  /// Per-edge winners of state idx's queue: a min-reduction over its
  /// entries' (rank, group), so the entries' order cannot matter.
  void contend(uint64_t idx, std::array<EdgeBest, kMaxDegree>& best, uint64_t& wanted) const {
    for (const Queued& q : queues[idx]) {
      const Prio p{q.rank, q.group};
      wanted |= q.mask;
      for (uint64_t m = q.mask; m; m &= m - 1) {
        EdgeBest& b = best[std::countr_zero(m)];
        if (!b.found || p < b.best) b = {true, p};
      }
    }
  }
  /// Move `group`'s packet off state idx's queue along edge e; the entry is
  /// swap-removed once it wants no edge.
  Val take(uint64_t idx, uint64_t group, uint32_t e) {
    std::vector<Queued>& queue = queues[idx];
    Queued* q = find_queued(queue, group);
    const Val v = q->val;
    q->mask &= ~(uint64_t{1} << e);
    if (q->mask == 0) {
      *q = queue.back();
      queue.pop_back();
    }
    return v;
  }
  bool idle(uint64_t idx) const { return queues[idx].empty(); }

  const Overlay& topo;
  Network& net;
  const uint32_t F;  // final routing level
  const NodeId cols;
  // Cached once: hops are recorded only at the sequential merge points, in
  // deterministic order, so they are thread-count invariant.
  obs::FlowSampler* flows;
  // Consulted only at the sequential merge points, so hits and evictions are
  // bit-identical across engine thread counts.
  CombiningCache* cache;
  MulticastTrees* record;  // route_down's tree recording, if on
  const CombiningCache::Stats cache_before;
  RouterWorkspace::Tables& ws;
  ActiveSet& active;
  // Token state, one token per (state, out-edge). Tokens carry their in-edge
  // index and tokens_recv tracks in-edges as a bitmask, so duplicate
  // deliveries (the stall heartbeat's re-sends) are idempotent.
  std::vector<uint64_t>& tokens_recv;
  std::vector<uint64_t>& token_sent;
  // Per routing state: one entry per group (see Queued). The step mutates
  // only the queue of the state it works on.
  std::vector<std::vector<Queued>>& queues;
  uint64_t queued = 0;  // packet moves still owed by the states' queues
  // Packets and tokens moved or delivered this round, merge-point effects
  // included, so the stall heartbeat only fires when the network truly
  // delivered nothing new.
  uint64_t progress = 0;
  Result result;
};

/// The router's one round loop, run by both directions: the Combining and
/// Spreading Phases are one algorithm run in opposite directions
/// (docs/ARCHITECTURE.md, "Router phase machine"). `Phase` derives PhaseCore
/// and supplies the direction-specific merge points (the queue itself —
/// contend, take, idle — is shared, in PhaseCore):
///   arrive(level, col, group, v) packet merge point
///   tokens_complete(idx)         token-completion merge point
template <class Phase>
void run_rounds(Phase& ph) {
  const Overlay& topo = ph.topo;
  Network& net = ph.net;
  const NodeId cols = ph.cols;
  uint64_t tokens_pending = 0;
  for (uint32_t l = 0; l < ph.F; ++l)
    tokens_pending += static_cast<uint64_t>(topo.down_degree(l)) * cols;
  for (NodeId c = 0; c < cols; ++c) ph.active.add(topo.index(ph.source(), c));

  // Applied sequentially on the caller thread, in deterministic order.
  auto land = [&](const Move& mv) {
    if (!mv.is_token) {
      ++ph.progress;
      ph.arrive(mv.level, mv.col, mv.group, mv.val);
      return;
    }
    if (mv.level == ph.sink()) return;  // sink-level tokens terminate here
    uint64_t idx = topo.index(mv.level, mv.col);
    uint64_t bit = uint64_t{1} << mv.edge;
    const bool fresh = !(ph.tokens_recv[idx] & bit);
    ph.tokens_recv[idx] |= bit;
    const bool ready = ph.token_ready(mv.level, idx);
    if (fresh) {
      ++ph.progress;
      if (ready) ph.tokens_complete(idx);  // the exact completion transition
    }
    if (ready && ph.token_sent[idx] != ph.full_mask(Phase::out_layer(mv.level)))
      ph.active.add(idx);
  };

  std::vector<StepOut>& outs = ph.ws.outs;
  std::vector<std::vector<Move>>& arrivals = ph.ws.arrivals;
  std::vector<Move>& local = ph.ws.local;
  std::vector<uint64_t>& items = ph.ws.items;

  bool first_round = true;
  while (ph.queued > 0 || tokens_pending > 0) {
    // Stall heartbeat: the previous round delivered and moved nothing (only
    // possible when fault injection ate every in-flight message), so re-send
    // every already-launched token before stepping. A reliable network moves
    // a packet or token every round and never gets here.
    if (!first_round && ph.progress == 0) {
      for (uint64_t idx = 0; idx < ph.token_sent.size(); ++idx) {
        const uint32_t level = ph.level_of(idx);
        const NodeId col = ph.col_of(idx);
        uint64_t mask = ph.token_sent[idx] & ~uint64_t{1};  // straight tokens are local
        while (mask) {
          uint32_t e = static_cast<uint32_t>(std::countr_zero(mask));
          mask &= mask - 1;
          net.send(topo.host(col), topo.host(ph.next_column(level, col, e)),
                   Phase::kTokenTag | Phase::next(level), {e});
          ++ph.result.stats.token_resends;
        }
      }
    }
    first_round = false;
    ph.progress = 0;

    // The step runs shard-parallel over the active routing states: each item
    // only mutates its own queue / token state, and every cross-node effect
    // (sends, straight-edge moves, tree recording, counters, re-activation)
    // is staged per shard and merged in shard order, which restores the
    // sequential iteration order exactly.
    ph.active.take(items);
    engine_ranges(net, items.size(), [&](uint32_t s, uint64_t ib, uint64_t ie) {
      StepOut& out = outs[s];  // drained and cleared by the merge below
      // Per-edge contention scratch, hoisted out of the item loop: only the
      // first `deg` entries are live per item (2 on the bit-fixing overlays),
      // so resetting `found` beats zero-initializing the whole 62-slot array
      // on the router's hottest path.
      std::array<EdgeBest, kMaxDegree> best;
      for (uint64_t ii = ib; ii < ie; ++ii) {
        uint64_t idx = items[ii];
        const uint32_t level = ph.level_of(idx);
        const NodeId col = ph.col_of(idx);
        NCC_ASSERT(level != ph.sink());  // sink-level states never enqueue work
        const uint32_t nlevel = Phase::next(level);
        const uint32_t deg = topo.down_degree(Phase::out_layer(level));
        uint64_t edge_used = 0, edge_wanted = 0;
        for (uint32_t e = 0; e < deg; ++e) best[e].found = false;
        ph.contend(idx, best, edge_wanted);
        for (uint32_t e = 0; e < deg; ++e) {
          if (!best[e].found) continue;
          uint64_t bit = uint64_t{1} << e;
          edge_used |= bit;
          uint64_t g = best[e].best.group;
          Val v = ph.take(idx, g, e);
          ++out.moved;
          NodeId ncol = ph.next_column(level, col, e);
          // The child may belong to another shard, so stage the tree edge.
          if (ph.record) out.rec.push_back({topo.index(nlevel, ncol), g, bit});
          if (e == 0) {
            out.local.push_back({nlevel, ncol, g, v, false});
          } else {
            out.sends.push_back(Message(topo.host(col), topo.host(ncol),
                                        Phase::kPacketTag | nlevel, {g, v[0], v[1]}));
          }
        }
        // A packet still wanting an edge means another packet of its group
        // may yet follow on it; the token waits for the edge to clear.
        const bool ready = ph.token_ready(level, idx);
        if (ready) {
          for (uint32_t e = 0; e < deg; ++e) {
            uint64_t bit = uint64_t{1} << e;
            if ((edge_used | edge_wanted | ph.token_sent[idx]) & bit) continue;
            ph.token_sent[idx] |= bit;
            ++out.tokens;
            NodeId ncol = ph.next_column(level, col, e);
            if (e == 0) {
              out.local.push_back({nlevel, ncol, 0, {}, true, 0});
            } else {
              out.sends.push_back(Message(topo.host(col), topo.host(ncol),
                                          Phase::kTokenTag | nlevel, {e}));
            }
          }
        }
        if (!ph.idle(idx) || (ready && ph.token_sent[idx] != (uint64_t{1} << deg) - 1))
          out.readd.push_back(idx);
      }
    });
    local.clear();
    for (StepOut& out : outs) {
      net.send_bulk(out.sends);
      local.insert(local.end(), out.local.begin(), out.local.end());
      for (const RecordOp& op : out.rec) ph.record->add_child(op.cidx, op.group, op.bit);
      for (uint64_t idx : out.readd) ph.active.add(idx);
      ph.result.stats.packets_moved += out.moved;
      ph.progress += out.moved + out.tokens;
      ph.queued -= out.moved;
      tokens_pending -= out.tokens;
      out.sends.clear();
      out.local.clear();
      out.rec.clear();
      out.readd.clear();
      out.moved = out.tokens = 0;
    }

    net.end_round();
    ++ph.result.stats.rounds;

    // Straight-edge moves land before inbox arrivals.
    for (const Move& mv : local) land(mv);
    // Arrival scan, sharded over host columns: each shard decodes its
    // columns' inboxes into staged arrival records; the merge applies them
    // in shard order, which concatenates back to the sequential
    // column-ascending scan order, so the merge points (which touch shared
    // routing state) stay on the caller thread and bit-identical for any
    // shard count.
    engine_ranges(net, cols, [&](uint32_t s, uint64_t ub, uint64_t ue) {
      std::vector<Move>& arr = arrivals[s];
      for (uint64_t u = ub; u < ue; ++u) {
        for (const Message& m : net.inbox(static_cast<NodeId>(u))) {
          uint32_t level = tag_level(m.tag);
          if (tag_kind(m.tag) == Phase::kPacketTag) {
            arr.push_back({level, static_cast<NodeId>(u), m.word(0),
                           Val{m.word(1), m.word(2)}, false, 0});
          } else if (tag_kind(m.tag) == Phase::kTokenTag) {
            // The in-edge is derived from the transport framing (src and dst
            // are network truth), never from the payload: a byzantine mutation
            // of the payload cannot poison the in-edge bitmask.
            uint32_t e = topo.edge_from_delta(Phase::in_layer(level),
                                              static_cast<NodeId>(u) ^ m.src);
            arr.push_back({level, static_cast<NodeId>(u), 0, {}, true, e});
          }
        }
      }
    });
    for (auto& arr : arrivals) {
      for (const Move& mv : arr) land(mv);
      arr.clear();
    }
  }

  if (ph.cache) {  // cache traffic is reported as per-call deltas
    const CombiningCache::Stats& cs = ph.cache->stats();
    ph.result.stats.cache_hits = cs.hits - ph.cache_before.hits;
    ph.result.stats.cache_misses = cs.misses - ph.cache_before.misses;
    ph.result.stats.cache_evictions = cs.evictions - ph.cache_before.evictions;
  }
}

/// The Combining Phase: each state queues one combined packet per group,
/// which wants the single edge of its greedy route toward h(group).
struct DownPhase : PhaseCore<false> {
  DownPhase(const Overlay& t, Network& n, CombiningCache* c, MulticastTrees* rec,
            const std::function<NodeId(uint64_t)>& dest_col_fn,
            const std::function<uint64_t(uint64_t)>& rank_fn, const CombineFn& combine_fn,
            RouterWorkspace::Tables& w)
      : PhaseCore(t, n, c, w, rec), dest_col(dest_col_fn), rank(rank_fn), combine(combine_fn),
        congestion(w.congestion), meta(w.meta), flush_buf(w.flush_buf) {}

  using Meta = std::pair<NodeId, uint64_t>;  // (h(group), rho(group))
  /// A group's Meta, computed on its first arrival.
  const Meta& group_meta(uint64_t g) {
    auto [slot, fresh] = meta.emplace(g, {});
    if (fresh) {
      NodeId dc = dest_col(g);
      NCC_ASSERT(dc < cols);
      *slot = std::make_pair(dc, rank(g));
    }
    return *slot;
  }
  /// Queue `v` at state idx, combining with its group's packet already
  /// there; a new entry wants the group's greedy edge out of idx.
  void enqueue(uint64_t idx, uint64_t group, const Val& v, const Meta& m) {
    std::vector<Queued>& queue = queues[idx];
    if (Queued* q = find_queued(queue, group)) {
      q->val = combine(q->val, v);
      ++result.stats.combines;
      return;
    }
    const uint32_t level = level_of(idx);
    const uint32_t e = topo.route_edge(level, col_of(idx), m.first);
    NCC_ASSERT(e < topo.down_degree(level));
    queue.push_back({group, v, uint64_t{1} << e, m.second});
    ++queued;
  }

  void arrive(uint32_t level, NodeId col, uint64_t group, const Val& v) {
    uint64_t idx = topo.index(level, col);
    congestion.visit(topo.overlay_node(level, col), group);
    const Meta m = group_meta(group);  // a copy: group_meta may rehash the map
    const NodeId dest = m.first;
    // Serving-side cache hit (tree setup only): the state holds this group's
    // payload, so the request ends here. Snapshot-and-clear the subtree
    // recorded below this state and register it as a cache root; the next
    // Spreading Phase injects the cached payload there instead of descending
    // from the group root. Clearing keeps the recorded tree and the cache
    // root disjoint — the up phase serves every recorded edge exactly once.
    const Val* pv = cache && record && level < F ? cache->lookup_payload(idx, group) : nullptr;
    if (flows)
      flows->record_hop(group, /*up=*/false, level,
                        level == F ? 0 : topo.route_edge(level, col, dest),
                        topo.host(col), net.rounds(), /*cache_hit=*/pv != nullptr);
    if (pv) {
      uint64_t mask = 0;
      if (uint64_t* recorded = record->child_mask(idx, group)) {
        mask = *recorded;
        *recorded = 0;
      }
      auto [dit, fresh_root] = croot_at.emplace(std::make_pair(idx, group),
                                                record->cache_roots.size());
      if (fresh_root) {
        record->cache_roots.push_back({group, idx, *pv, mask});
      } else {
        record->cache_roots[dit->second].mask |= mask;
      }
      return;
    }
    if (level == F) {
      // A reliable network never misroutes (the destination-driven descent
      // ends at the group's root column), so there a mismatch is still a hard
      // routing-invariant violation; under byzantine corruption a rewritten
      // group id can land a packet at a foreign root on its last hop — then
      // it is network behaviour: count it and drop, don't abort.
      if (dest != col) {
        NCC_ASSERT_MSG(net.corruption_possible(),
                       "packet misrouted on a reliable network");
        ++result.stats.misrouted;
        return;
      }
      auto [slot, fresh] = result.root_values.emplace(group, v);
      if (!fresh) {
        *slot = combine(*slot, v);
        ++result.stats.combines;
      }
      result.root_col[group] = col;
      if (record) record->root_col[group] = col;
      return;
    }
    // Absorber-side caching (pure aggregation descent): a repeat packet of a
    // group whose earlier packet already departed parks in the armed
    // absorber instead of climbing separately; its mass re-enters the
    // pending queue at this state's token-completion transition. A packet
    // whose group is still queued here just combines with it.
    if (cache && !record && level >= 1 && !find_queued(queues[idx], group)) {
      if (cache->absorb(idx, group, v, combine)) return;
      // Arm only while more packets can still arrive (tokens incomplete): an
      // absorber armed after the flush transition would never drain.
      CombiningCache::Flushed ev;
      if (!token_ready(level, idx) && cache->arm_absorber(idx, group, &ev))
        enqueue(idx, ev.group, ev.val, group_meta(ev.group));
    }
    enqueue(idx, group, v, m);
    active.add(idx);
  }

  /// Token completion is the absorber drain point: every value parked at
  /// this state re-enters the pending queue here, exactly once, so
  /// aggregates stay exact.
  void tokens_complete(uint64_t idx) {
    if (!cache || record) return;
    flush_buf.clear();
    cache->flush_absorbers(idx, &flush_buf);
    for (const CombiningCache::Flushed& f : flush_buf) {
      enqueue(idx, f.group, f.val, group_meta(f.group));
      active.add(idx);
    }
  }

  const std::function<NodeId(uint64_t)>& dest_col;
  const std::function<uint64_t(uint64_t)>& rank;
  const CombineFn& combine;
  CongestionTracker& congestion;
  // Cached group metadata (dest column and rank are hash evaluations that
  // every node can compute from the shared randomness). Read only on the
  // sequential merge points, when an arrival or a queue entry is created.
  FlatMap<Meta>& meta;
  // Dedup index into record->cache_roots: later hits of a group at the same
  // state OR their subtree masks into the root recorded by the first hit.
  std::map<std::pair<uint64_t, uint64_t>, size_t> croot_at;
  std::vector<CombiningCache::Flushed>& flush_buf;
};

/// The Spreading Phase: each state serves a group's payload along the mask
/// of recorded up-edges it still owes (bit e = reverse of down-edge e of the
/// level below); a group wants every edge in its mask.
struct UpPhase : PhaseCore<true> {
  UpPhase(const Overlay& t, Network& n, CombiningCache* c, const MulticastTrees& tr,
          const std::function<uint64_t(uint64_t)>& rank_fn, RouterWorkspace::Tables& w)
      : PhaseCore(t, n, c, w), trees(tr), rank(rank_fn), rank_cache(w.rank_cache) {
    result.at_col.assign(cols, {});
  }

  uint64_t group_rank(uint64_t g) {
    auto [slot, fresh] = rank_cache.emplace(g, 0);
    if (fresh) *slot = rank(g);
    return *slot;
  }

  /// Start serving `group` at state idx along the up-edges in `mask`. A
  /// group already served there collides only when byzantine corruption
  /// rewrote its id in flight: count it and drop, don't abort.
  bool serve(uint64_t idx, uint64_t group, const Val& v, uint64_t mask,
             const char* collision) {
    std::vector<Queued>& queue = queues[idx];
    if (find_queued(queue, group)) {
      NCC_ASSERT_MSG(net.corruption_possible(), collision);
      ++result.stats.misrouted;
      return false;
    }
    queue.push_back({group, v, mask, group_rank(group)});
    queued += std::popcount(mask);
    active.add(idx);
    return true;
  }

  void arrive(uint32_t level, NodeId col, uint64_t group, const Val& v) {
    uint64_t idx = topo.index(level, col);
    if (flows)
      flows->record_hop(group, /*up=*/true, level, 0, topo.host(col), net.rounds());
    if (level == 0) {
      // Admission point: every state the payload passes (leaves included)
      // caches it, so a later wave's setup request can terminate here.
      if (cache) cache->admit_payload(idx, group, v);
      result.at_col[col].push_back({group, v});
      return;
    }
    const uint64_t* mask = trees.child_mask(idx, group);
    if (!mask || *mask == 0) {
      // Off-tree arrival: on a reliable network packets only follow recorded
      // tree edges, so this stays a hard invariant there; byzantine
      // corruption can rewrite a packet's group id in flight — then it is
      // network behaviour: count it and drop, don't abort.
      NCC_ASSERT_MSG(net.corruption_possible(),
                     "multicast packet strayed off its recorded tree");
      ++result.stats.misrouted;
      return;
    }
    if (!serve(idx, group, v, *mask, "duplicate multicast arrival on a reliable network"))
      return;
    if (cache) cache->admit_payload(idx, group, v);  // same admission point
  }
  void tokens_complete(uint64_t /*idx*/) {}

  const MulticastTrees& trees;
  const std::function<uint64_t(uint64_t)>& rank;
  // Read on the sequential merge points, when a queue entry is created.
  FlatMap<uint64_t>& rank_cache;
};

}  // namespace

const uint64_t* MulticastTrees::child_mask(uint64_t idx, uint64_t group) const {
  for (const auto& [g, mask] : children[idx])
    if (g == group) return &mask;
  return nullptr;
}
uint64_t* MulticastTrees::child_mask(uint64_t idx, uint64_t group) {
  return const_cast<uint64_t*>(std::as_const(*this).child_mask(idx, group));
}
void MulticastTrees::add_child(uint64_t idx, uint64_t group, uint64_t bits) {
  if (uint64_t* mask = child_mask(idx, group)) {
    *mask |= bits;
  } else {
    children[idx].emplace_back(group, bits);
  }
}

uint32_t MulticastTrees::max_leaf_load() const {
  uint32_t best = 0;
  for (const auto& v : leaf_members)
    best = std::max<uint32_t>(best, static_cast<uint32_t>(v.size()));
  return best;
}

DownResult route_down(const Overlay& topo, Network& net, RouterWorkspace& ws,
                      std::vector<std::vector<AggPacket>> at_col,
                      const std::function<NodeId(uint64_t)>& dest_col,
                      const std::function<uint64_t(uint64_t)>& rank,
                      const CombineFn& combine, MulticastTrees* record,
                      CombiningCache* cache) {
  obs::Span span(net, "route.down");
  NCC_ASSERT(at_col.size() == topo.columns());
  RouterWorkspace::Tables& w = ws.tables();
  w.begin(topo, engine_shards(net));
  DownPhase ph(topo, net, cache, record, dest_col, rank, combine, w);
  // Initialize the tree record before the first deposits: the serving-hit
  // branch reads record->children for level-0 states too.
  if (record) {
    record->levels = topo.levels();
    record->children.assign(topo.node_count(), {});
  }
  for (NodeId c = 0; c < ph.cols; ++c)
    for (const AggPacket& p : at_col[c]) ph.arrive(0, c, p.group, p.val);
  at_col.clear();

  run_rounds(ph);

  ph.result.stats.congestion = ph.congestion.max();
  if (record) record->congestion = ph.congestion.max();
  if (!w.end()) ws.release();
  return std::move(ph.result);
}

UpResult route_up(const Overlay& topo, Network& net, RouterWorkspace& ws,
                  const MulticastTrees& trees, const FlatMap<Val>& payloads,
                  const std::function<uint64_t(uint64_t)>& rank,
                  CombiningCache* cache) {
  obs::Span span(net, "route.up");
  NCC_ASSERT(trees.levels == topo.levels());
  NCC_ASSERT(trees.children.size() == topo.node_count());
  RouterWorkspace::Tables& w = ws.tables();
  w.begin(topo, engine_shards(net));
  UpPhase ph(topo, net, cache, trees, rank, w);

  // Slot order — deterministic and thread-invariant because the caller
  // populates `payloads` sequentially (see FlatMap::for_each).
  payloads.for_each([&](uint64_t group, const Val& val) {
    const NodeId* rcol = trees.root_col.find(group);
    if (!rcol) {
      // A reliable network always records a root (tree invariant); under
      // scenario fault injection a group can lose every membership packet,
      // in which case its multicast is undeliverable — count it, don't abort.
      ++ph.result.stats.lost_groups;
      return;
    }
    ph.arrive(ph.F, *rcol, group, val);
  });

  // Inject the cached payloads at the cache roots route_down recorded: each
  // serves exactly the subtree whose setup requests terminated at that state
  // (the mask snapshotted-and-cleared at hit time), so no recorded edge is
  // served twice. Level-0 roots are leaf-local hits — delivered straight to
  // the column, zero routing messages.
  for (const MulticastTrees::CacheRoot& cr : trees.cache_roots) {
    const uint32_t level = ph.level_of(cr.idx);
    const NodeId col = ph.col_of(cr.idx);
    if (ph.flows)
      ph.flows->record_hop(cr.group, /*up=*/true, level, 0, topo.host(col),
                           net.rounds(), /*cache_hit=*/true);
    if (cache) cache->admit_payload(cr.idx, cr.group, cr.val);  // refresh
    if (level == 0) {
      ph.result.at_col[col].push_back({cr.group, cr.val});
      continue;
    }
    if (cr.mask == 0) continue;  // nothing recorded below this state
    // Roots are deduplicated per (idx, group) at record time.
    ph.serve(cr.idx, cr.group, cr.val, cr.mask,
             "duplicate cache-root injection on a reliable network");
  }

  run_rounds(ph);
  if (!w.end()) ws.release();
  return std::move(ph.result);
}

}  // namespace ncc
