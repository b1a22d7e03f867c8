#include "core/orientation_algo.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "core/identification.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/aggregation.hpp"
#include "primitives/multicast.hpp"

namespace ncc {

namespace {

constexpr uint32_t kTagGather = 0x2000;      // U_high id -> node 0
constexpr uint32_t kTagPipe = 0x2100;        // pipelined id broadcast
constexpr uint32_t kTagContact = 0x2200;     // active/waiting -> U_high neighbor
constexpr uint32_t kTagEdgeMsg = 0x2300;     // stage-3 rendezvous edge message
constexpr uint32_t kTagEdgeResp = 0x2400;    // stage-3 response

enum class St : uint8_t { Waiting, Active, Inactive };

/// Gather the given node ids at node 0 and broadcast them to everyone through
/// a pipelined binary tree (the second-step U_high broadcast of Section 4.2).
/// Returns the sorted id list (which after the broadcast every node knows).
std::vector<NodeId> broadcast_ids(Network& net, std::vector<NodeId> ids) {
  const NodeId n = net.n();
  std::sort(ids.begin(), ids.end());
  // Gather: senders pace themselves so node 0 receives at most cap per round
  // (the paper routes them over the butterfly path system, smallest id first;
  // the round count is the same O(k + log n)).
  uint32_t cap = net.cap();
  uint32_t gather_rounds = std::max<uint32_t>(1, (static_cast<uint32_t>(ids.size()) + cap - 1) / cap);
  size_t cursor = 0;
  for (uint32_t r = 0; r < gather_rounds; ++r) {
    for (uint32_t j = 0; j < cap && cursor < ids.size(); ++j, ++cursor) {
      if (ids[cursor] != 0) net.send(ids[cursor], 0, kTagGather, {ids[cursor]});
    }
    net.end_round();
  }
  // Pipelined broadcast over the implicit binary tree on node ids.
  uint32_t depth = cap_log(n);
  uint32_t total_rounds = static_cast<uint32_t>(ids.size()) + depth + 1;
  // received[u] = ids already known to u (ordered); next index to forward.
  std::vector<size_t> forwarded(n, 0);
  std::vector<std::vector<NodeId>> known(n);
  known[0] = ids;
  for (uint32_t r = 0; r < total_rounds; ++r) {
    for (NodeId u = 0; u < n; ++u) {
      if (forwarded[u] >= known[u].size()) continue;
      NodeId id = known[u][forwarded[u]++];
      NodeId c1 = 2 * u + 1, c2 = 2 * u + 2;
      if (c1 < n) net.send(u, c1, kTagPipe, {id});
      if (c2 < n) net.send(u, c2, kTagPipe, {id});
    }
    net.end_round();
    for (NodeId u = 1; u < n; ++u) {
      for (const Message& m : net.inbox(u)) {
        if (m.tag == kTagPipe) known[u].push_back(static_cast<NodeId>(m.word(0)));
      }
    }
  }
  return ids;
}

}  // namespace

OrientationRunResult run_orientation(const Shared& shared, Network& net, const Graph& g,
                                     const OrientationAlgoParams& params) {
  const NodeId n = g.n();
  NCC_ASSERT(n == net.n());
  obs::Span span(net, "setup.orientation");
  const Overlay& topo = shared.topo();
  const uint32_t logn = cap_log(n);
  constexpr double kE = 2.718281828459045;

  OrientationRunResult res(g);
  res.level.assign(n, 0);
  res.same_level.assign(n, {});
  uint64_t start_rounds = net.stats().total_rounds();

  std::vector<St> status(n, St::Waiting);
  std::vector<uint32_t> d_i(n);
  for (NodeId u = 0; u < n; ++u) d_i[u] = g.degree(u);
  // pot[v]: potentially-learning out-neighbors known to inactive node v
  // (fixed when v becomes inactive: its waiting red neighbors).
  std::vector<std::vector<NodeId>> pot(n);
  std::vector<uint8_t> mark(n, 0);  // membership scratch, all zero between uses

  uint64_t cnt_bound = n;  // the last phase's non-inactive count (see below)
  uint32_t phase = 0;
  while (true) {
    ++phase;
    NCC_ASSERT_MSG(phase <= 4 * logn + 8, "orientation failed to converge");

    // ---------------- Stage 1: determine active nodes -------------------
    // Inactive nodes report themselves to each potentially-learning
    // out-neighbor; non-inactive u thereby computes d_i(u).
    {
      AggregationProblem prob;
      prob.combine = agg::sum;
      prob.target = [](uint64_t grp) { return static_cast<NodeId>(grp); };
      prob.ell2_hat = 1;
      for (NodeId v = 0; v < n; ++v) {
        if (status[v] != St::Inactive) continue;
        for (NodeId w : pot[v]) prob.items.push_back({v, w, Val{1, 0}});
      }
      AggregationResult agg_res = run_aggregation(shared, net, prob, phase * 131 + 1);
      for (NodeId u = 0; u < n; ++u) {
        if (status[u] == St::Inactive) continue;
        uint32_t inactive_nb = 0;
        if (const Val* pv = agg_res.at_target.find(u))
          inactive_nb = static_cast<uint32_t>((*pv)[0]);
        // Clamp: a legitimate count never exceeds the degree, but a byzantine
        // payload mutation can report one — an unclamped value underflows
        // d_i and blows the later round horizons up.
        d_i[u] = g.degree(u) - std::min(inactive_nb, g.degree(u));
      }
    }
    // Average remaining degree over non-inactive nodes; also the
    // termination check (no non-inactive nodes left).
    uint64_t sum_d = 0, cnt = 0;
    {
      std::vector<std::optional<Val>> inputs(n);
      for (NodeId u = 0; u < n; ++u)
        if (status[u] != St::Inactive) inputs[u] = Val{d_i[u], 1};
      auto ab = aggregate_and_broadcast(topo, net, shared.barrier_workspace(), inputs, agg::sum);
      if (!ab.value.has_value()) {
        --phase;
        break;  // everyone inactive: done
      }
      sum_d = (*ab.value)[0];
      cnt = (*ab.value)[1];
      // Cross-check cnt against what every node holds: the non-inactive set
      // only shrinks, so an honest count is at most n and at most the count
      // of the phase before (a no-op on a reliable network). A byzantine
      // word can inflate it (a partial count is remapped within [0, n)),
      // which lowers the average, leaves few nodes active and costs whole
      // extra phases of about d*-scaled identification rounds each.
      cnt = std::min(cnt, cnt_bound);
      cnt_bound = cnt;
    }
    // Classification: active iff d_i(u) <= 2 * average (integer arithmetic).
    std::vector<NodeId> active;
    for (NodeId u = 0; u < n; ++u) {
      if (status[u] == St::Inactive) continue;
      if (d_i[u] == 0) {
        // All incident edges already directed by earlier phases; the node
        // leaves the peeling immediately.
        status[u] = St::Inactive;
        res.level[u] = phase;
        continue;
      }
      if (static_cast<uint64_t>(d_i[u]) * cnt <= 2 * sum_d) {
        status[u] = St::Active;
        active.push_back(u);
      }
    }

    // ---------------- Stage 2: identify inactive neighbors --------------
    // d*_i via Aggregate-and-Broadcast (max over active nodes).
    uint32_t d_star_i = 0;
    {
      std::vector<std::optional<Val>> inputs(n);
      for (NodeId u : active) inputs[u] = Val{d_i[u], 0};
      auto ab = aggregate_and_broadcast(topo, net, shared.barrier_workspace(), inputs,
                                        agg::max_by_first);
      if (ab.value.has_value()) d_star_i = static_cast<uint32_t>((*ab.value)[0]);
      // Clamp: a degree bound is < n on any honest run; a byzantine mutation
      // must not be allowed to schedule an astronomically long contact phase
      // (the horizon allocates one slot vector per round).
      d_star_i = std::min<uint32_t>(d_star_i, n - 1);
      // Cross-check against the classification invariant every active node
      // just verified locally: active means d_i * cnt <= 2 * sum_d, so a
      // decoded d* above floor(2 sum_d / cnt) cannot come from an honest
      // aggregate — re-derive it from the already-broadcast average instead
      // of letting a byzantine word stretch every d*-scaled horizon (the
      // identification schedule, the contact rounds, the rendezvous phase).
      if (net.corruption_possible() && cnt > 0) {
        uint64_t legal = std::max<uint64_t>(1, 2 * sum_d / cnt);
        d_star_i = static_cast<uint32_t>(std::min<uint64_t>(d_star_i, legal));
      }
    }
    res.d_star = std::max(res.d_star, d_star_i);
    uint32_t d_star = std::max(res.d_star, 1u);

    // Step 1: constant-s identification (s = c, q = 4ec d* log n).
    IdentificationInput id_in;
    for (NodeId u : active) {
      id_in.learning.push_back(u);
      auto nb = g.neighbors(u);
      id_in.candidates.emplace_back(nb.begin(), nb.end());
    }
    for (NodeId v = 0; v < n; ++v) {
      if (status[v] != St::Inactive || pot[v].empty()) continue;
      id_in.playing.push_back(v);
      id_in.potential.push_back(pot[v]);
    }
    IdentificationParams p1;
    p1.s = params.c;
    p1.q = static_cast<uint32_t>(std::ceil(4.0 * kE * params.c * d_star * logn));
    // q scales with the aggregate-decoded d*: hand identification the
    // per-unit factor so it can recover if that bound was poisoned in flight
    // (the second identification's q is d*-independent and needs none).
    p1.q_unit = static_cast<uint32_t>(std::ceil(4.0 * kE * params.c * logn));
    IdentificationResult ident = run_identification(shared, net, id_in, p1, phase * 131 + 2);

    // Collect per-active-node red sets and the unsuccessful split.
    std::vector<std::vector<NodeId>> red(n);
    std::vector<NodeId> u_high;
    std::vector<NodeId> u_low;
    for (size_t li = 0; li < id_in.learning.size(); ++li) {
      NodeId u = id_in.learning[li];
      red[u] = ident.red[li];
      if (!ident.success[li]) {
        ++res.unsuccessful_first;
        if (g.degree(u) - d_i[u] > n / logn) {
          u_high.push_back(u);
        } else if (ident.damaged[li]) {
          // A retry redraws the hash functions, which cures a collision but
          // not an aggregate damaged in flight (each retry also doubles q):
          // such a node goes straight to the direct resolution.
          u_high.push_back(u);
          ++res.direct_fallbacks;
        } else {
          u_low.push_back(u);
        }
      }
    }

    // Step 2a: low-degree unsuccessful nodes -> narrowed second
    // identification (s = c log n, q = 4ec log^2 n), with retries.
    for (uint32_t attempt = 0; attempt <= params.max_retries && !u_low.empty(); ++attempt) {
      // Inactive nodes learn which of their potentially-learning neighbors
      // are unsuccessful low-degree nodes, via multicast trees over groups
      // A_{id(w)} = inactive in-neighbors of w.
      std::vector<MulticastMembership> memberships;
      for (NodeId v = 0; v < n; ++v) {
        if (status[v] != St::Inactive) continue;
        for (NodeId w : pot[v]) memberships.push_back({v, w, MulticastMembership::kSelf});
      }
      auto setup = setup_multicast_trees(shared, net, memberships, /*ell1_hat=*/0,
                                         phase * 131 + 17 + attempt);
      std::vector<MulticastSend> sends;
      sends.reserve(u_low.size());
      for (NodeId w : u_low) sends.push_back({w, w, Val{1, 0}});
      auto mc = run_multicast(shared, net, setup.trees, sends, d_star,
                              phase * 131 + 18 + attempt);

      IdentificationInput in2;
      for (NodeId u : u_low) {
        in2.learning.push_back(u);
        // Remaining candidates: all neighbors minus already-identified reds.
        for (NodeId v : red[u]) mark[v] = 1;
        std::vector<NodeId> cand;
        for (NodeId v : g.neighbors(u))
          if (!mark[v]) cand.push_back(v);
        for (NodeId v : red[u]) mark[v] = 0;
        in2.candidates.push_back(std::move(cand));
      }
      for (NodeId v = 0; v < n; ++v) {
        if (status[v] != St::Inactive) continue;
        std::vector<NodeId> narrowed;
        for (const AggPacket& pk : mc.received[v])
          narrowed.push_back(static_cast<NodeId>(pk.group));
        // (Equivalent to pot[v] intersected with U_low; the multicast is the
        // mechanism by which v learns the intersection.)
        if (!narrowed.empty()) {
          in2.playing.push_back(v);
          in2.potential.push_back(std::move(narrowed));
        }
      }
      IdentificationParams p2;
      p2.s = params.c * logn;
      p2.q = static_cast<uint32_t>(std::ceil(4.0 * kE * params.c * logn * logn))
             << attempt;  // double q on retry
      IdentificationResult id2 = run_identification(shared, net, in2, p2,
                                                    phase * 131 + 29 + attempt * 7);
      std::vector<NodeId> still;
      for (size_t li = 0; li < in2.learning.size(); ++li) {
        NodeId u = in2.learning[li];
        auto& r = red[u];
        r.insert(r.end(), id2.red[li].begin(), id2.red[li].end());
        if (id2.success[li]) continue;
        if (id2.damaged[li]) {
          u_high.push_back(u);  // as after the first identification
          ++res.direct_fallbacks;
        } else {
          still.push_back(u);
        }
      }
      u_low = std::move(still);
    }
    // Any survivors of the retries fall back to the direct resolution.
    for (NodeId u : u_low) {
      u_high.push_back(u);
      ++res.direct_fallbacks;
    }

    // Step 2b: high-degree (and fallback) unsuccessful nodes: broadcast
    // their ids; every active-or-waiting neighbor contacts them directly in
    // a random round from {1..max(|Ru|, d*_i)}.
    if (!u_high.empty()) {
      std::vector<NodeId> uh = broadcast_ids(net, u_high);
      // Every U_high node restarts identification from scratch: red edges are
      // exactly the neighbors that contact it.
      for (NodeId u : uh) {
        red[u].clear();
        mark[u] = 1;
      }
      Rng contact_rng = shared.local_rng(phase * 131 + 47);
      uint32_t rounds_T = 1;
      std::vector<std::vector<std::pair<NodeId, NodeId>>> schedule;  // (from, to)
      std::vector<std::vector<NodeId>> ru(n);
      for (NodeId w = 0; w < n; ++w) {
        if (status[w] == St::Inactive) continue;  // active or waiting only
        for (NodeId v : g.neighbors(w))
          if (mark[v] && v != w) ru[w].push_back(v);
        rounds_T = std::max<uint32_t>(
            rounds_T, std::max<uint32_t>(static_cast<uint32_t>(ru[w].size()), d_star_i));
      }
      for (NodeId u : uh) mark[u] = 0;
      schedule.assign(rounds_T, {});
      for (NodeId w = 0; w < n; ++w) {
        uint32_t horizon =
            std::max<uint32_t>(1, std::max<uint32_t>(
                                      static_cast<uint32_t>(ru[w].size()), d_star_i));
        for (NodeId v : ru[w])
          schedule[contact_rng.next_below(horizon)].push_back({w, v});
      }
      for (uint32_t r = 0; r < rounds_T; ++r) {
        for (auto [w, v] : schedule[r]) net.send(w, v, kTagContact, {w});
        net.end_round();
        for (NodeId v : uh) {
          for (const Message& m : net.inbox(v)) {
            if (m.tag == kTagContact) red[v].push_back(static_cast<NodeId>(m.word(0)));
          }
        }
      }
      for (NodeId v : uh) {
        std::sort(red[v].begin(), red[v].end());
        red[v].erase(std::unique(red[v].begin(), red[v].end()), red[v].end());
      }
      // rounds_T is a maximum of |R_w| over all nodes, which no node knows,
      // so the contact phase ends at a barrier.
      sync_barrier(topo, net, shared.barrier_workspace());
    }

    // Sanity: red sets must exactly match the non-inactive neighbors — a
    // model-level invariant on a reliable network. Under fault injection a
    // lost or corrupted identification answer legitimately breaks it: filter
    // the impossible entries, count the damage, and carry on degraded.
    for (NodeId u : active) {
      if (net.losses_possible()) {
        auto& r = red[u];
        size_t before = r.size();
        r.erase(std::remove_if(r.begin(), r.end(),
                               [&](NodeId v) {
                                 return v >= n || v == u || status[v] == St::Inactive ||
                                        !g.has_edge(u, v);
                               }),
                r.end());
        res.fault_conflicts += (before - r.size()) + (r.size() != d_i[u] ? 1 : 0);
        continue;
      }
      for (NodeId v : red[u]) NCC_ASSERT(status[v] != St::Inactive);
      uint32_t expect = d_i[u];
      NCC_ASSERT_MSG(red[u].size() == expect,
                     "identification missed a red edge (capacity drop?)");
    }

    // ---------------- Stage 3: identify active neighbors ----------------
    // Rendezvous hashing: both endpoints of an active-active edge send the
    // edge id to the same random node in the same random round; the node
    // answers both.
    std::vector<std::vector<NodeId>> active_red(n);
    {
      HashFamily fam = shared.make_family(net, phase * 131 + 53, 2, 2 * logn);
      uint32_t horizon = std::max(1u, d_star_i);
      std::vector<std::vector<std::pair<NodeId, uint64_t>>> schedule(horizon);
      for (NodeId u : active) {
        for (NodeId v : red[u]) {
          uint64_t e = edge_id(u, v);
          uint32_t r = static_cast<uint32_t>(fam.fn(1).to_range(e, horizon));
          schedule[r].push_back({u, e});
        }
      }
      // Endpoint t of edge e learns that the other endpoint is active (a
      // corrupted edge id can name a non-node, which is dropped).
      auto learn = [&](NodeId t, uint64_t e) {
        NodeId a = static_cast<NodeId>(e >> 32), b = static_cast<NodeId>(e & 0xffffffffu);
        NodeId other = t == a ? b : a;
        if (other < n) active_red[t].push_back(other);
      };
      // Drain the round's inboxes: edge messages join `halves` as
      // (rendezvous node, edge).
      std::vector<std::pair<NodeId, uint64_t>> halves;
      auto drain = [&] {
        for (NodeId t = 0; t < n; ++t) {
          for (const Message& m : net.inbox(t)) {
            if (m.tag == kTagEdgeMsg) halves.push_back({t, m.word(0)});
            if (m.tag == kTagEdgeResp) learn(t, m.word(0));
          }
        }
      };
      for (uint32_t r = 0; r < horizon; ++r) {
        // A sender that is its own rendezvous target holds its half locally,
        // beside the network halves that arrive this round.
        halves.clear();
        for (auto [u, e] : schedule[r]) {
          NodeId tgt = static_cast<NodeId>(fam.fn(0).to_range(e, n));
          if (tgt == u) {
            halves.push_back({u, e});
          } else {
            net.send(u, tgt, kTagEdgeMsg, {e, u});
          }
        }
        net.end_round();
        drain();
        // Answer every (rendezvous node, edge) pair that met both halves, in
        // ascending order.
        std::sort(halves.begin(), halves.end());
        for (size_t i = 0, j = 0; i < halves.size(); i = j) {
          while (j < halves.size() && halves[j] == halves[i]) ++j;
          if (j - i < 2) continue;
          auto [t, e] = halves[i];
          NodeId a = static_cast<NodeId>(e >> 32), b = static_cast<NodeId>(e & 0xffffffffu);
          for (NodeId ep : {a, b}) {
            if (ep == t) {
              learn(t, e);
            } else {
              net.send(t, ep, kTagEdgeResp, {e});
            }
          }
        }
      }
      // Flush: the final send round's responses need one more delivery round.
      // The stage lasts horizon + 1 rounds and every node holds d*_i from the
      // A&B, so no barrier follows it.
      net.end_round();
      drain();
    }

    // ---------------- Conclude the phase locally ------------------------
    // On a reliable network every edge is claimed exactly once (the stage-3
    // rendezvous tells both endpoints the same story); under fault injection
    // a lost response can make both endpoints treat the other as waiting, so
    // the duplicate claim is counted and the first direction kept.
    auto orient_once = [&](NodeId u, NodeId v) {
      if (res.orientation.is_oriented(u, v)) {
        NCC_ASSERT_MSG(net.losses_possible(),
                       "edge oriented twice on a reliable network");
        ++res.fault_conflicts;
        return;
      }
      res.orientation.orient(u, v);
    };
    for (NodeId u : active) {
      for (NodeId v : active_red[u]) mark[v] = 1;
      std::vector<NodeId> waiting_red;
      for (NodeId v : red[u]) {
        if (mark[v]) {
          res.same_level[u].push_back(v);
          if (u < v) orient_once(u, v);  // id rule, recorded once
        } else {
          orient_once(u, v);  // u -> waiting neighbor
          waiting_red.push_back(v);
        }
      }
      for (NodeId v : active_red[u]) mark[v] = 0;
      status[u] = St::Inactive;
      res.level[u] = phase;
      pot[u] = std::move(waiting_red);
    }
  }

  res.phases = phase;
  res.rounds = net.rounds() + net.stats().charged_rounds - start_rounds;
  return res;
}

}  // namespace ncc
