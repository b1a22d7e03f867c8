#include "primitives/aggregate_broadcast.hpp"

#include "common/assert.hpp"
#include "engine/engine.hpp"
#include "obs/tracer.hpp"

namespace ncc {

namespace {
constexpr uint32_t kTagAttach = 0x0500;     // non-emulating node -> level-0 host
constexpr uint32_t kTagAggStep = 0x0600;    // aggregation toward column 0
constexpr uint32_t kTagBcastStep = 0x0700;  // broadcast back toward level 0
constexpr uint32_t kTagDetach = 0x0800;     // level-0 host -> non-emulating node
}  // namespace

AbResult aggregate_and_broadcast(const Overlay& topo, Network& net,
                                 const std::vector<std::optional<Val>>& inputs,
                                 const CombineFn& combine) {
  const NodeId n = topo.n();
  const uint32_t steps = topo.agg_steps();
  const NodeId cols = topo.columns();
  NCC_ASSERT(inputs.size() == n);
  obs::Span span(net, "aggregate_broadcast");
  AbResult res;
  uint64_t start_rounds = net.rounds();

  // Round 1: nodes without an overlay column hand their input to their
  // level-0 attachment node. (Run unconditionally: A&B has a fixed round
  // schedule, which is what makes it usable as a barrier.)
  engine_send_loop(net, n - cols, [&](uint64_t i, Network& out) {
    NodeId u = cols + static_cast<NodeId>(i);
    if (inputs[u].has_value()) {
      const Val& v = *inputs[u];
      out.send(u, topo.host(topo.attach_column(u)), kTagAttach, {v[0], v[1]});
    }
  });
  net.end_round();

  // Value held at each column: own input (if the hosting node is in A)
  // combined with the attached node's input.
  std::vector<std::optional<Val>> cur(cols);
  for (NodeId c = 0; c < cols; ++c) {
    NodeId host = topo.host(c);
    if (inputs[host].has_value()) cur[c] = inputs[host];
    for (const Message& m : net.inbox(host)) {
      if (m.tag != kTagAttach) continue;
      Val v{m.word(0), m.word(1)};
      cur[c] = cur[c] ? combine(*cur[c], v) : v;
    }
  }

  // Aggregation phase: agg_steps() merge steps toward column 0 along the
  // overlay's tree. At step i the value at column c moves to agg_parent(i, c);
  // a moving value is a cross edge (real message), a fixed point holds the
  // value locally for free.
  for (uint32_t i = 0; i < steps; ++i) {
    std::vector<std::optional<Val>> next(cols);
    engine_send_loop(net, cols, [&](uint64_t ci, Network& out) {
      NodeId c = static_cast<NodeId>(ci);
      if (!cur[c]) return;
      NodeId nc = topo.agg_parent(i, c);
      if (nc == c) {
        next[c] = cur[c];
      } else {
        const Val& v = *cur[c];
        out.send(topo.host(c), topo.host(nc), kTagAggStep | (i + 1), {v[0], v[1]});
      }
    });
    net.end_round();
    for (NodeId c = 0; c < cols; ++c) {
      for (const Message& m : net.inbox(topo.host(c))) {
        if ((m.tag & 0xff00u) != kTagAggStep) continue;
        Val v{m.word(0), m.word(1)};
        next[c] = next[c] ? combine(*next[c], v) : v;
      }
    }
    cur = std::move(next);
  }
  for (NodeId c = 1; c < cols; ++c) NCC_ASSERT(!cur[c].has_value());
  res.value = cur[0];

  // Broadcast phase: the aggregation steps replayed in reverse; at broadcast
  // step b (undoing merge step i = steps-1-b) every not-yet-informed column
  // receives the value from its unique tree parent — the reverse of its
  // agg_parent edge, staged child-major so no per-column children lists are
  // materialized. Informedness is a pure function of the tree (never of the
  // data), kept in a per-column flag vector that is read-only inside the
  // send loop and advanced by the parent relation between rounds — on the default binary tree this reproduces the seed's
  // closed-form informed-mask schedule message for message.
  bool has = res.value.has_value();
  Val v = has ? *res.value : Val{};
  std::vector<uint8_t> informed(cols, 0);
  informed[0] = 1;
  std::vector<uint8_t> informed_next(cols);
  // Parent cache: one tree lookup per column per step, written inside the
  // send loop and reused by the informed-advance pass.
  std::vector<NodeId> parent(cols);
  for (uint32_t b = 0; b < steps; ++b) {
    uint32_t i = steps - 1 - b;  // merge step being reversed
    engine_send_loop(net, cols, [&](uint64_t ci, Network& out) {
      NodeId c = static_cast<NodeId>(ci);
      NodeId p = topo.agg_parent(i, c);
      parent[c] = p;
      if (has && !informed[c] && p != c && informed[p])
        out.send(topo.host(p), topo.host(c), kTagBcastStep | b, {v[0], v[1]});
    });
    net.end_round();
    for (NodeId c = 0; c < cols; ++c) {
      NodeId p = parent[c];
      informed_next[c] = informed[c] | (p != c ? informed[p] : uint8_t{0});
    }
    std::swap(informed, informed_next);
  }

  // Final round: level-0 hosts inform their attached non-emulating nodes.
  engine_send_loop(net, n - cols, [&](uint64_t i, Network& out) {
    NodeId u = cols + static_cast<NodeId>(i);
    if (has)
      out.send(topo.host(topo.attach_column(u)), u, kTagDetach, {v[0], v[1]});
  });
  net.end_round();

  res.rounds = net.rounds() - start_rounds;
  return res;
}

uint64_t sync_barrier(const Overlay& topo, Network& net, BarrierWorkspace& ws) {
  // Fast path of the all-ones A&B: every node holds the input 1 and the
  // running values are plain subtree counts, so the barrier is replayed with
  // column-sized count/presence vectors (the caller's reusable workspace)
  // instead of the n-sized optional<Val> vector plus CombineFn plumbing of
  // the general primitive. Value presence is tracked separately from the
  // count (a byzantine hook may zero a count word in flight; the general
  // primitive still forwards the present value), which keeps the rounds and
  // the send/drop schedule identical to aggregate_and_broadcast(all-ones,
  // sum) under every fault model — asserted by the tier-1 tests. The only
  // divergence a fault can cause is in payload words already corrupted in
  // flight, which barrier receivers discard unread.
  const NodeId n = topo.n();
  const NodeId cols = topo.columns();
  const uint32_t steps = topo.agg_steps();
  obs::Span span(net, "sync_barrier");
  uint64_t start_rounds = net.rounds();

  // Attach round: every non-hosting node reports its 1.
  engine_send_loop(net, n - cols, [&](uint64_t i, Network& out) {
    NodeId u = cols + static_cast<NodeId>(i);
    out.send(u, topo.host(topo.attach_column(u)), kTagAttach, {1, 0});
  });
  net.end_round();

  // Column c's state after a round is its own slot plus its own inbox:
  // after the attach round, its host's input and the attached reports;
  // after merge step i, what it held (if it is its own tree parent) plus
  // what its tree children sent. Folding reads nothing of other columns, so
  // it runs inside the next step's per-item send loop, which also records
  // the column's parent at its step for the next fold (one tree lookup per
  // column per step).
  std::vector<uint64_t>& weight = ws.weight;
  std::vector<uint8_t>& present = ws.present;
  std::vector<NodeId>& parent = ws.parent;
  weight.resize(cols);
  present.resize(cols);
  parent.resize(cols);
  auto fold = [&](NodeId c, bool attach) {
    const bool held = attach || (parent[c] == c && present[c]);
    uint64_t w = attach ? 1 : held ? weight[c] : 0;  // attach: the host's own input
    bool got = held;
    for (const Message& m : net.inbox(topo.host(c))) {
      if (attach ? m.tag != kTagAttach : (m.tag & 0xff00u) != kTagAggStep) continue;
      w += m.word(0);
      got = true;
    }
    weight[c] = w;
    present[c] = got;
  };

  // Aggregation: at step i the count at column c moves to agg_parent(i, c).
  for (uint32_t i = 0; i < steps; ++i) {
    engine_send_loop(net, cols, [&](uint64_t ci, Network& out) {
      const NodeId c = static_cast<NodeId>(ci);
      fold(c, i == 0);
      const NodeId nc = topo.agg_parent(i, c);
      parent[c] = nc;
      if (present[c] && nc != c)
        out.send(topo.host(c), topo.host(nc), kTagAggStep | (i + 1), {weight[c], 0});
    });
    net.end_round();
  }
  fold(0, steps == 0);  // only the root's total is read on
  // Every input reaches the root on a clean run; fault hooks and base-model
  // receive-capacity drops (e.g. an aggressive tree in-degree against a
  // capacity_factor the overlay documentation warns about) lose counts, not
  // the schedule.
  NCC_ASSERT(weight[0] == n || net.losses_possible() ||
             net.stats().messages_dropped > 0);

  // Broadcast of the total back down the reversed tree: at broadcast step b
  // (undoing merge step steps-1-b) every not-yet-informed column hears from
  // its informed tree parent. Who is informed never depends on the data, so
  // the senders of every step are scheduled once per overlay and replayed.
  if (ws.n != n || ws.kind != topo.kind()) {
    ws.bcast_cols.clear();
    ws.bcast_off.assign(1, 0);
    std::vector<uint8_t> informed(cols, 0), informed_next(cols);
    informed[0] = 1;
    for (uint32_t b = 0; b < steps; ++b) {
      const uint32_t i = steps - 1 - b;
      for (NodeId c = 0; c < cols; ++c) {
        const NodeId p = topo.agg_parent(i, c);
        if (!informed[c] && p != c && informed[p]) ws.bcast_cols.push_back(c);
        informed_next[c] = informed[c] | (p != c ? informed[p] : uint8_t{0});
      }
      ws.bcast_off.push_back(static_cast<uint32_t>(ws.bcast_cols.size()));
      std::swap(informed, informed_next);
    }
    ws.n = n;
    ws.kind = topo.kind();
  }
  for (uint32_t b = 0; b < steps; ++b) {
    const uint32_t i = steps - 1 - b;
    const NodeId* senders = ws.bcast_cols.data() + ws.bcast_off[b];
    engine_send_loop(net, ws.bcast_off[b + 1] - ws.bcast_off[b],
                     [&](uint64_t k, Network& out) {
                       const NodeId c = senders[k];
                       out.send(topo.host(topo.agg_parent(i, c)), topo.host(c),
                                kTagBcastStep | b, {weight[0], 0});
                     });
    net.end_round();
  }

  // Detach round.
  engine_send_loop(net, n - cols, [&](uint64_t i, Network& out) {
    NodeId u = cols + static_cast<NodeId>(i);
    out.send(topo.host(topo.attach_column(u)), u, kTagDetach, {weight[0], 0});
  });
  net.end_round();

  return net.rounds() - start_rounds;
}

}  // namespace ncc
