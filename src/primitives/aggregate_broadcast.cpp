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

// Sizes the column scratch for `topo` and builds its schedule, which never
// depends on the data: merge step i visits the columns a value can occupy by
// then (all at step 0, then the tree parents of the step before); broadcast
// step b (undoing merge step steps-1-b) informs every not-yet-informed
// column whose tree parent is informed.
void build_schedule(const Overlay& topo, BarrierWorkspace& ws) {
  const NodeId cols = topo.columns();
  const uint32_t steps = topo.agg_steps();
  ws.merge_cols.clear();
  ws.parent.clear();
  ws.merge_off.assign(1, 0);
  std::vector<uint8_t> live(cols, 1), live_next;
  for (uint32_t i = 0; i < steps; ++i) {
    live_next.assign(cols, 0);
    for (NodeId c = 0; c < cols; ++c) {
      if (!live[c]) continue;
      ws.merge_cols.push_back(c);
      ws.parent.push_back(topo.agg_parent(i, c));
      live_next[ws.parent.back()] = 1;
    }
    ws.merge_off.push_back(static_cast<uint32_t>(ws.merge_cols.size()));
    std::swap(live, live_next);
  }
  // Every value must end at the root, not at another column.
  for (NodeId c = 1; c < cols; ++c)
    NCC_ASSERT_MSG(!live[c], "aggregation tree strands a value outside column 0");
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
  ws.value.resize(cols);
  ws.present.resize(cols);
  ws.n = topo.n();
  ws.kind = topo.kind();
}

// The one A&B schedule: attach round, agg_steps() merge and agg_steps()
// broadcast steps, detach round, all run whatever the inputs (with none, the
// broadcast and detach rounds send nothing). `input(u)` points at node u's
// input, or is nullptr when u is not in A.
template <class Input, class Combine>
AbResult run_ab(const Overlay& topo, Network& net, BarrierWorkspace& ws,
                const Input& input, const Combine& combine) {
  const NodeId n = topo.n();
  const NodeId cols = topo.columns();
  const uint32_t steps = topo.agg_steps();
  const uint64_t start_rounds = net.rounds();
  if (ws.n != n || ws.kind != topo.kind()) build_schedule(topo, ws);

  // Attach round: nodes without an overlay column hand their input to their
  // level-0 attachment host.
  engine_send_loop(net, n - cols, [&](uint64_t i, Network& out) {
    const NodeId u = cols + static_cast<NodeId>(i);
    if (const Val* v = input(u))
      out.send(u, topo.host(topo.attach_column(u)), kTagAttach, {(*v)[0], (*v)[1]});
  });
  net.end_round();

  // Column c's value after a round: what it holds (after the attach round,
  // its host's input) combined with its inbox. The fold reads no other
  // column, so it runs inside the next step's send loop; it returns the value
  // so the send reads it from a register, not back from the column.
  std::vector<Val>& value = ws.value;
  std::vector<uint8_t>& present = ws.present;
  auto fold = [&](NodeId c, bool attach) {
    const Val* own = attach ? input(topo.host(c)) : present[c] ? &value[c] : nullptr;
    Val v = own ? *own : Val{};
    bool got = own != nullptr;
    for (const Message& m : net.inbox(topo.host(c))) {
      if (attach ? m.tag != kTagAttach : (m.tag & 0xff00u) != kTagAggStep) continue;
      const Val w{m.word(0), m.word(1)};
      v = got ? combine(v, w) : w;
      got = true;
    }
    value[c] = v;
    present[c] = got;
    return v;
  };

  // Aggregation: at step i the value at column c moves to its tree parent
  // as a message, leaving c empty; a fixed point holds its value for free.
  for (uint32_t i = 0; i < steps; ++i) {
    const uint32_t lo = ws.merge_off[i];
    engine_send_loop(net, ws.merge_off[i + 1] - lo, [&](uint64_t k, Network& out) {
      const NodeId c = ws.merge_cols[lo + k];
      const NodeId p = ws.parent[lo + k];
      const Val v = fold(c, i == 0);
      if (present[c] && p != c) {
        out.send(topo.host(c), topo.host(p), kTagAggStep | (i + 1), {v[0], v[1]});
        present[c] = 0;
      }
    });
    net.end_round();
  }
  fold(0, steps == 0);  // only the root's value is read on
  AbResult res;
  if (present[0]) res.value = value[0];
  const Val v = value[0];

  // Broadcast back down the reversed tree, replaying the cached schedule.
  for (uint32_t b = 0; b < steps; ++b) {
    const uint32_t i = steps - 1 - b, lo = ws.bcast_off[b];
    engine_send_loop(net, res.value ? ws.bcast_off[b + 1] - lo : 0, [&](uint64_t k, Network& out) {
      const NodeId c = ws.bcast_cols[lo + k];
      out.send(topo.host(topo.agg_parent(i, c)), topo.host(c), kTagBcastStep | b, {v[0], v[1]});
    });
    net.end_round();
  }

  // Detach round: level-0 hosts inform their attached non-emulating nodes.
  engine_send_loop(net, res.value ? n - cols : 0, [&](uint64_t i, Network& out) {
    const NodeId u = cols + static_cast<NodeId>(i);
    out.send(topo.host(topo.attach_column(u)), u, kTagDetach, {v[0], v[1]});
  });
  net.end_round();

  res.rounds = net.rounds() - start_rounds;
  return res;
}
}  // namespace

AbResult aggregate_and_broadcast(const Overlay& topo, Network& net, BarrierWorkspace& ws,
                                 const std::vector<std::optional<Val>>& inputs,
                                 const CombineFn& combine) {
  NCC_ASSERT(inputs.size() == topo.n());
  obs::Span span(net, "aggregate_broadcast");
  auto input = [&](NodeId u) { return inputs[u] ? &*inputs[u] : nullptr; };
  return run_ab(topo, net, ws, input, combine);
}

uint64_t sync_barrier(const Overlay& topo, Network& net, BarrierWorkspace& ws) {
  obs::Span span(net, "sync_barrier");
  static constexpr Val kOne{1, 0};
  // Lambdas, not function pointers, so both inline into the runner's loops.
  const AbResult res = run_ab(
      topo, net, ws, [](NodeId) { return &kOne; },
      [](const Val& a, const Val& b) { return agg::sum(a, b); });
  // Every input reaches the root on a clean run; faults and receive-capacity
  // drops (an aggressive tree in-degree against a small capacity_factor)
  // lose counts, not the schedule.
  NCC_ASSERT((res.value && (*res.value)[0] == topo.n()) || net.losses_possible() ||
             net.stats().messages_dropped > 0);
  return res.rounds;
}

}  // namespace ncc
