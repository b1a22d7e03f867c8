#include "core/mst.hpp"

#include <algorithm>
// det-lint: allow(unordered-container) — all uses audited at their declaration sites
#include <unordered_map>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/aggregation.hpp"
#include "primitives/multicast.hpp"

namespace ncc {

namespace {

constexpr uint32_t kTagSourceNotify = 0x4000;
constexpr uint32_t kTagLeaderReport = 0x4100;

/// FindMin search keys: (weight ◦ min-id ◦ max-id), direction-independent.
struct KeyCodec {
  uint32_t idbits;
  uint32_t wbits;

  uint64_t key(NodeId a, NodeId b, Weight w) const {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(w) << (2 * idbits)) |
           (static_cast<uint64_t>(a) << idbits) | b;
  }
  NodeId key_a(uint64_t k) const {
    return static_cast<NodeId>((k >> idbits) & ((uint64_t{1} << idbits) - 1));
  }
  NodeId key_b(uint64_t k) const {
    return static_cast<NodeId>(k & ((uint64_t{1} << idbits) - 1));
  }
  Weight key_w(uint64_t k) const { return k >> (2 * idbits); }
  uint64_t min_key() const { return uint64_t{1} << (2 * idbits); }
  uint64_t max_key(Weight w_max) const {
    return (static_cast<uint64_t>(w_max) << (2 * idbits)) |
           ((uint64_t{1} << (2 * idbits)) - 1);
  }
};

}  // namespace

MstResult run_mst(const Shared& shared, Network& net, const Graph& g,
                  const MstParams& params, uint64_t rng_tag) {
  const NodeId n = g.n();
  const Overlay& topo = shared.topo();
  obs::Span span(net, "mst");
  const uint32_t logn = cap_log(n);
  NCC_ASSERT_MSG(n <= (1u << 16), "FindMin key packing supports n <= 2^16");
  NCC_ASSERT_MSG(g.max_weight() <= (1u << 20), "weights must be <= 2^20 (poly(n))");
  NCC_ASSERT(params.trials >= 1 && params.trials <= 60);
  uint64_t start_rounds = net.stats().total_rounds();

  MstResult res;
  res.leader.resize(n);
  for (NodeId u = 0; u < n; ++u) res.leader[u] = u;

  NCC_ASSERT_MSG(params.search_arity >= 2 && params.search_arity <= 8,
                 "FindMin search arity must be in [2, 8]");
  KeyCodec codec{cap_log(n), cap_log(g.max_weight() + 1)};
  const uint64_t key_lo0 = codec.min_key();
  const uint64_t key_hi0 = codec.max_key(g.max_weight());

  // Sketch hash family, retrieved once (the paper's O(log^3 n)-bit setup);
  // per-phase salting of the input keeps phases independent.
  HashFamily fam = shared.make_family(net, mix64(0x357 ^ rng_tag), params.trials,
                                      2 * logn);
  Rng coin_rng = shared.local_rng(mix64(0xc011 ^ rng_tag));

  // Per directed arc, in CSR order (node u's arcs are arc_off[u]..arc_off[u+1],
  // one per neighbor): its FindMin key and the index of its reverse arc.
  std::vector<uint64_t> arc_off(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) arc_off[u + 1] = arc_off[u] + g.degree(u);
  std::vector<uint64_t> arc_key(arc_off[n]);
  std::vector<uint64_t> arc_rev(arc_off[n]);
  for (NodeId u = 0; u < n; ++u) {
    auto nb = g.neighbors(u);
    for (size_t k = 0; k < nb.size(); ++k) {
      const NodeId v = nb[k];
      auto nv = g.neighbors(v);
      arc_key[arc_off[u] + k] = codec.key(u, v, g.weight(u, v));
      arc_rev[arc_off[u] + k] =
          arc_off[v] + (std::lower_bound(nv.begin(), nv.end(), u) - nv.begin());
    }
  }
  // Sketch bits per directed arc, refreshed each phase: bit t is trial t's
  // hash of the salted arc id (node-local work, no rounds or messages).
  const uint32_t max_bits = std::min(params.trials, 60u);
  std::vector<uint64_t> arc_bits(arc_off[n]);

  while (true) {
    ++res.phases;
    NCC_ASSERT_MSG(res.phases <= 8 * logn + 8, "MST failed to converge");
    const uint64_t phase_salt = mix64(rng_tag ^ (res.phases * 0x9e3779b9ULL));
    for (NodeId u = 0; u < n; ++u) {
      auto nb = g.neighbors(u);
      for (size_t k = 0; k < nb.size(); ++k)
        arc_bits[arc_off[u] + k] =
            fam.bit_word(mix64(arc_id(u, nb[k]) ^ phase_salt), max_bits);
    }

    // Rebuild component multicast trees: members = C \ {leader}, group id =
    // leader id (disjoint groups => congestion O(log n), Theorem 2.4).
    std::vector<MulticastMembership> memberships;
    for (NodeId u = 0; u < n; ++u)
      if (res.leader[u] != u) memberships.push_back({u, res.leader[u]});
    auto trees = setup_multicast_trees(shared, net, memberships,
                                       mix64(rng_tag ^ (res.phases * 31 + 1)));

    // Leaders flip coins and multicast them (Heads = 1).
    std::vector<bool> is_leader(n, false);
    for (NodeId u = 0; u < n; ++u) is_leader[res.leader[u]] = true;
    std::vector<uint8_t> coin(n, 0);  // per node: its component's coin
    {
      std::vector<MulticastSend> sends;
      for (NodeId l = 0; l < n; ++l) {
        if (!is_leader[l]) continue;
        coin[l] = coin_rng.next_bool() ? 1 : 0;
        sends.push_back({l, l, Val{coin[l], 0}});
      }
      auto mc = run_multicast(shared, net, trees.trees, sends, 1,
                              mix64(rng_tag ^ (res.phases * 31 + 2)));
      for (NodeId u = 0; u < n; ++u)
        for (const AggPacket& p : mc.received[u]) coin[u] = static_cast<uint8_t>(p.val[0]);
    }

    // ---- FindMin: A-ary search over the key space, all leaders in
    // lockstep (1 existence probe + ceil(log_A range) refinements). Binary
    // (A = 2) matches the paper's presentation; higher arity matches the
    // original Theta(log n)-ary FindMin of [35] (footnote 3), packing A
    // subrange sketch groups of Ts bits each into one aggregate word pair.
    const uint32_t A = params.search_arity;
    const uint32_t Ts = std::min(params.trials, 64u / A);  // bits per subrange
    NCC_ASSERT(Ts >= 1);
    struct Search {
      uint64_t lo, hi;
      bool exists = false;  // an outgoing edge exists at all
      bool done = false;
    };
    // det-lint: allow(unordered-container) — leaders are inserted in ascending node id,
    // so traversal order is a fixed function of that sequence (no ASLR/thread input).
    std::unordered_map<NodeId, Search> search;
    for (NodeId l = 0; l < n; ++l)
      if (is_leader[l]) search[l] = Search{key_lo0, key_hi0, false, false};
    // Iterations until every range shrinks to one key.
    uint32_t iters = 1;
    {
      __uint128_t reach = 1;
      uint64_t range0 = key_hi0 - key_lo0 + 1;
      while (reach < range0) {
        reach *= A;
        ++iters;
      }
    }

    auto split_len = [&](uint64_t plo, uint64_t phi) {
      return (phi - plo) / A + 1;  // ceil((hi-lo+1)/A)
    };
    for (uint32_t iter = 0; iter < iters; ++iter) {
      // Leaders multicast the probe range [lo, hi], so every node learns its
      // component's probe (leaders know theirs locally); nodes derive the
      // A-way split locally (A is a global parameter).
      std::vector<MulticastSend> probes;
      std::vector<std::pair<uint64_t, uint64_t>> node_probe(n, {1, 0});
      for (auto& [l, s] : search) {
        if (s.done || (iter > 0 && s.lo >= s.hi)) continue;
        probes.push_back({l, l, Val{s.lo, s.hi}});
        node_probe[l] = {s.lo, s.hi};
      }
      auto mc = run_multicast(shared, net, trees.trees, probes, 1,
                              mix64(rng_tag ^ (res.phases * 31 + 3 + iter)));
      for (NodeId u = 0; u < n; ++u)
        for (const AggPacket& p : mc.received[u]) node_probe[u] = {p.val[0], p.val[1]};

      // Sketch aggregation to the leaders: per subrange j, trial t, bit
      // position j*Ts + t; the first iteration probes existence over the
      // whole range with the full trial budget.
      const bool existence = (iter == 0);
      const uint32_t groups = existence ? 1 : A;
      const uint32_t bits = existence ? max_bits : Ts;
      const uint64_t mask = (uint64_t{1} << bits) - 1;  // bits <= 60
      AggregationProblem prob;
      prob.combine = agg::xor_xor;
      prob.target = [](uint64_t grp) { return static_cast<NodeId>(grp); };
      prob.ell2_hat = 1;
      for (NodeId u = 0; u < n; ++u) {
        auto [plo, phi] = node_probe[u];
        if (plo > phi) continue;  // no probe for this component this iter
        uint64_t len = existence ? (phi - plo + 1) : split_len(plo, phi);
        uint64_t up = 0, down = 0;
        for (uint64_t i = arc_off[u]; i < arc_off[u + 1]; ++i) {
          const uint64_t k = arc_key[i];
          if (k < plo || k > phi) continue;
          uint32_t j = static_cast<uint32_t>((k - plo) / len);
          NCC_ASSERT(j < groups);
          up ^= (arc_bits[i] & mask) << (j * bits);
          down ^= (arc_bits[arc_rev[i]] & mask) << (j * bits);
        }
        prob.items.push_back({u, res.leader[u], Val{up, down}});
      }
      auto agg_res = run_aggregation(shared, net, prob,
                                     mix64(rng_tag ^ (res.phases * 31 + 101 + iter)));
      for (auto& [l, s] : search) {
        if (s.done || (iter > 0 && s.lo >= s.hi)) continue;
        uint64_t up = 0, down = 0;
        if (const Val* pv = agg_res.at_target.find(l)) {
          up = (*pv)[0];
          down = (*pv)[1];
        }
        if (existence) {
          s.exists = up != down;
          if (!s.exists) s.done = true;  // component spans its entire CC
          continue;
        }
        // Pick the lowest subrange whose sketches differ.
        uint64_t len = split_len(s.lo, s.hi);
        bool found = false;
        for (uint32_t j = 0; j < groups; ++j) {
          uint64_t uj = (up >> (j * bits)) & mask;
          uint64_t dj = (down >> (j * bits)) & mask;
          if (uj != dj) {
            uint64_t nlo = s.lo + j * len;
            uint64_t nhi = std::min(s.hi, nlo + len - 1);
            s.lo = nlo;
            s.hi = nhi;
            found = true;
            break;
          }
        }
        if (!found) {
          // All subranges sketched equal although an edge exists: a sketch
          // failure (probability <= A * 2^-Ts). Stall this phase; the next
          // Boruvka phase retries with a fresh salt.
          s.exists = false;
          s.done = true;
        }
      }
    }

    // ---- Merge step ----
    // Leaders multicast the found key; the endpoint inside the component
    // recognizes itself.
    std::vector<MulticastSend> key_sends;
    std::vector<uint64_t> comp_key(n, 0);  // per node: its component's key (0 = none)
    for (auto& [l, s] : search) {
      if (!s.exists) continue;
      NCC_ASSERT(s.lo == s.hi);
      key_sends.push_back({l, l, Val{s.lo, 0}});
      comp_key[l] = s.lo;
    }
    {
      auto mc = run_multicast(shared, net, trees.trees, key_sends, 1,
                              mix64(rng_tag ^ (res.phases * 31 + 4)));
      for (NodeId u = 0; u < n; ++u)
        for (const AggPacket& p : mc.received[u]) comp_key[u] = p.val[0];
    }
    // u* detection + membership into A_{id(v*)}.
    std::vector<MulticastMembership> joins;
    std::vector<NodeId> ustar_of(n, UINT32_MAX);  // per node: v* if it is u*
    for (NodeId u = 0; u < n; ++u) {
      uint64_t k = comp_key[u];
      if (k == 0) continue;
      NodeId a = codec.key_a(k), b = codec.key_b(k);
      if (u != a && u != b) continue;
      NodeId v = (u == a) ? b : a;
      // Sanity: u really has this incident edge with this weight. A key that
      // byzantine corruption rewrote in flight can name a non-edge, or a v
      // that is not a node: then u is not u* this phase.
      const bool real = v < n && g.has_edge(u, v) && g.weight(u, v) == codec.key_w(k);
      if (!real && net.corruption_possible()) continue;
      NCC_ASSERT_MSG(real, "FindMin produced a non-existent edge (sketch failure)");
      ustar_of[u] = v;
      joins.push_back({u, v});
    }
    auto trees2 = setup_multicast_trees(shared, net, joins,
                                        mix64(rng_tag ^ (res.phases * 31 + 5)));
    // Tree roots notify the sources that their group is live, in one round
    // (every node knows that length, so no barrier follows it).
    std::vector<uint64_t> live_groups;
    trees2.trees.root_col.for_each(
        [&](uint64_t grp, const NodeId&) { live_groups.push_back(grp); });
    std::sort(live_groups.begin(), live_groups.end());
    std::vector<bool> is_source(n, false);
    for (uint64_t grp : live_groups) {
      NodeId v = static_cast<NodeId>(grp);
      NodeId host = topo.host(trees2.trees.root_col.at(grp));
      if (host == v)
        is_source[v] = true;
      else
        net.send(host, v, kTagSourceNotify, {grp});
    }
    net.end_round();
    for (NodeId v = 0; v < n; ++v)
      for (const Message& m : net.inbox(v))
        if (m.tag == kTagSourceNotify) is_source[v] = true;
    // Sources multicast (own component's coin, own leader id).
    std::vector<MulticastSend> info_sends;
    for (NodeId v = 0; v < n; ++v)
      if (is_source[v]) info_sends.push_back({v, v, Val{coin[v], res.leader[v]}});
    auto info = run_multicast(shared, net, trees2.trees, info_sends, 1,
                              mix64(rng_tag ^ (res.phases * 31 + 6)));
    // Tails-component endpoints adjacent to Heads components report the new
    // leader to their own leader and record the MST edge, in one round (no
    // barrier follows it, as above).
    std::vector<NodeId> new_leader_of(n, UINT32_MAX);  // per leader: merge target
    for (NodeId u = 0; u < n; ++u) {
      if (ustar_of[u] == UINT32_MAX || coin[u] != 0) continue;  // Tails only
      for (const AggPacket& p : info.received[u]) {
        if (p.val[0] != 1) continue;  // merge only if the neighbor flipped Heads
        NodeId other_leader = static_cast<NodeId>(p.val[1]);
        NodeId v = ustar_of[u];
        res.edges.emplace_back(u, v, g.weight(u, v));
        res.known_by.push_back(u);
        res.total_weight += g.weight(u, v);
        if (res.leader[u] == u) {
          new_leader_of[u] = other_leader;
        } else {
          net.send(u, res.leader[u], kTagLeaderReport, {other_leader});
        }
      }
    }
    net.end_round();
    for (NodeId l = 0; l < n; ++l) {
      if (!is_leader[l]) continue;
      for (const Message& m : net.inbox(l))
        if (m.tag == kTagLeaderReport) new_leader_of[l] = static_cast<NodeId>(m.word(0));
    }
    // Leaders announce the merge to their components.
    std::vector<MulticastSend> merge_sends;
    for (NodeId l = 0; l < n; ++l)
      if (is_leader[l] && new_leader_of[l] != UINT32_MAX)
        merge_sends.push_back({l, l, Val{new_leader_of[l], 0}});
    auto merge_mc = run_multicast(shared, net, trees.trees, merge_sends, 1,
                                  mix64(rng_tag ^ (res.phases * 31 + 7)));
    for (NodeId l = 0; l < n; ++l)
      if (is_leader[l] && new_leader_of[l] != UINT32_MAX) res.leader[l] = new_leader_of[l];
    for (NodeId u = 0; u < n; ++u)
      for (const AggPacket& p : merge_mc.received[u])
        res.leader[u] = static_cast<NodeId>(p.val[0]);

    // Termination: did any component still have an outgoing edge?
    std::vector<std::optional<Val>> inputs(n);
    for (auto& [l, s] : search)
      if (s.exists) inputs[l] = Val{1, 0};
    auto ab = aggregate_and_broadcast(topo, net, shared.barrier_workspace(), inputs, agg::sum);
    if (!ab.value.has_value()) break;
  }

  res.rounds = net.stats().total_rounds() - start_rounds;
  return res;
}

}  // namespace ncc
