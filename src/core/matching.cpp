#include "core/matching.hpp"

#include "common/assert.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/aggregation.hpp"

namespace ncc {

namespace {
constexpr uint32_t kTagAcceptConfirm = 0x3000;
constexpr uint32_t kTagPickNotify = 0x3100;
}  // namespace

MatchingResult run_matching(const Shared& shared, Network& net, const Graph& g,
                            const BroadcastTrees& bt, uint64_t rng_tag) {
  const NodeId n = g.n();
  const Overlay& topo = shared.topo();
  obs::Span span(net, "matching");
  uint64_t start_rounds = net.stats().total_rounds();

  MatchingResult res;
  res.mate.assign(n, kUnmatched);
  // A node is alive while it is unmatched and may still have an unmatched
  // neighbor; nodes that receive no choice candidate retire.
  std::vector<bool> alive(n, true);
  for (NodeId u = 0; u < n; ++u)
    if (g.degree(u) == 0) alive[u] = false;

  Rng rng = shared.local_rng(mix64(0x3a7c4 ^ rng_tag));

  while (true) {
    ++res.phases;
    NCC_ASSERT_MSG(res.phases <= 40 * cap_log(n), "matching failed to converge");

    // Step 1: every alive node multicasts its id; each leaf annotates the
    // packet with a random priority so the MIN aggregate picks a uniformly
    // random alive neighbor for every receiver.
    std::vector<NodeId> senders;
    std::vector<Val> payload(n, Val{0, 0});
    for (NodeId u = 0; u < n; ++u) {
      if (!alive[u]) continue;
      payload[u] = Val{u, 0};
      senders.push_back(u);
    }
    uint64_t phase_salt = mix64(rng_tag ^ (res.phases * 7919));
    LeafAnnotateFn annotate = [phase_salt](uint64_t group, NodeId member, const Val& v) {
      uint64_t r = mix64(phase_salt ^ (group << 20) ^ member);
      return Val{r, v[0]};  // (random priority, sender id)
    };
    auto exch = neighborhood_exchange(shared, net, bt, senders, payload,
                                      agg::min_by_first,
                                      mix64(rng_tag ^ (res.phases * 131 + 1)), annotate);
    // choice[u]: the random alive neighbor u picked (only meaningful for
    // alive u); alive nodes with no candidate retire.
    std::vector<NodeId> choice(n, kUnmatched);
    for (NodeId u = 0; u < n; ++u) {
      if (!alive[u]) continue;
      if (exch.at_node[u].has_value()) {
        choice[u] = static_cast<NodeId>((*exch.at_node[u])[1]);
      } else {
        alive[u] = false;  // no unmatched neighbor left
      }
    }

    // Step 2: chosen nodes accept their minimum-id chooser via Aggregation.
    // Each chooser sends one item (l1_hat = 1).
    AggregationProblem prob;
    prob.combine = agg::min_by_first;
    prob.target = [](uint64_t grp) { return static_cast<NodeId>(grp); };
    prob.ell1_hat = 1;
    prob.ell2_hat = 1;
    for (NodeId u = 0; u < n; ++u)
      if (choice[u] != kUnmatched) prob.items.push_back({u, choice[u], Val{u, 0}});
    auto acc = run_aggregation(shared, net, prob, mix64(rng_tag ^ (res.phases * 131 + 2)));
    std::vector<NodeId> accepted(n, kUnmatched);  // a(u): chooser u accepted
    // Group ids are distinct chooser nodes: pure scatter, order-free.
    acc.at_target.for_each([&](uint64_t grp, const Val& v) {
      accepted[static_cast<NodeId>(grp)] = static_cast<NodeId>(v[0]);
    });

    // The accepting node informs the accepted chooser directly (one message
    // per acceptor; everyone receives at most one confirm).
    for (NodeId u = 0; u < n; ++u)
      if (accepted[u] != kUnmatched) net.send(u, accepted[u], kTagAcceptConfirm, {u});
    net.end_round();
    std::vector<NodeId> confirmed(n, kUnmatched);  // my choice accepted me
    for (NodeId u = 0; u < n; ++u) {
      for (const Message& m : net.inbox(u)) {
        if (m.tag == kTagAcceptConfirm) confirmed[u] = static_cast<NodeId>(m.word(0));
      }
    }

    // Step 3: the accepted-choice edges form paths and cycles (degree <= 2:
    // the edge to accepted[u] and the edge to confirmed[u]). Every node picks
    // a random incident structure edge and notifies the other endpoint; an
    // edge picked from both sides joins the matching.
    std::vector<NodeId> pick(n, kUnmatched);
    for (NodeId u = 0; u < n; ++u) {
      NodeId cands[2];
      uint32_t cnt = 0;
      if (accepted[u] != kUnmatched) cands[cnt++] = accepted[u];
      if (confirmed[u] != kUnmatched && confirmed[u] != accepted[u])
        cands[cnt++] = confirmed[u];
      if (cnt == 0) continue;
      pick[u] = cands[rng.next_below(cnt)];
      net.send(u, pick[u], kTagPickNotify, {u});
    }
    net.end_round();
    for (NodeId u = 0; u < n; ++u) {
      for (const Message& m : net.inbox(u)) {
        if (m.tag != kTagPickNotify) continue;
        NodeId v = static_cast<NodeId>(m.word(0));
        if (pick[u] == v) {
          res.mate[u] = v;  // v's symmetric receipt sets mate[v] = u
          alive[u] = false;
        }
      }
    }

    // Termination: any node still unmatched with unmatched neighbors?
    std::vector<std::optional<Val>> inputs(n);
    for (NodeId u = 0; u < n; ++u)
      if (alive[u]) inputs[u] = Val{1, 0};
    auto ab = aggregate_and_broadcast(topo, net, shared.barrier_workspace(), inputs, agg::sum);
    if (!ab.value.has_value()) break;
  }

  res.rounds = net.stats().total_rounds() - start_rounds;
  return res;
}

}  // namespace ncc
