#include "primitives/exchange.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "engine/engine.hpp"

namespace ncc {

void run_exchange(Network& net, const ExchangeRounds& rounds, uint32_t tag, uint8_t words,
                  FnRef<void(NodeId, uint64_t, const Val&)> land) {
  NCC_ASSERT(words == 2 || words == 3);
  for (const std::vector<ExchangeEntry>& round : rounds) {
    engine_send_loop(net, round.size(), [&](uint64_t i, Network& out) {
      const ExchangeEntry& e = round[i];
      if (e.from == e.to) {
        land(e.to, e.group, e.val);
      } else if (words == 2) {
        out.send(e.from, e.to, tag, {e.group, e.val[0]});
      } else {
        out.send(e.from, e.to, tag, {e.group, e.val[0], e.val[1]});
      }
    });
    net.end_round();
    for (NodeId u = 0; u < net.n(); ++u) {
      for (const Message& m : net.inbox(u)) {
        if (m.tag != tag) continue;
        land(u, m.word(0), Val{m.word(1), words == 2 ? 0 : m.word(2)});
      }
    }
  }
}

ExchangeRounds batched_rounds(NodeId n, size_t count, FnRef<NodeId(size_t)> sender,
                              uint32_t min_rounds, FnRef<ExchangeEntry(size_t)> entry) {
  // One stable counting sort (the paper's enumeration p_1..p_k per node):
  // sender u's items, in input order, are order[off[u] .. off[u+1]).
  std::vector<uint32_t> off(n + 1, 0);
  for (size_t i = 0; i < count; ++i) {
    const NodeId u = sender(i);
    NCC_ASSERT_MSG(u < n, "exchange sender out of range");
    ++off[u + 1];
  }
  uint32_t max_k = 0;
  for (NodeId u = 0; u < n; ++u) {
    max_k = std::max(max_k, off[u + 1]);
    off[u + 1] += off[u];
  }
  std::vector<uint32_t> order(count);
  std::vector<uint32_t> fill(off.begin(), off.end() - 1);
  for (size_t i = 0; i < count; ++i) order[fill[sender(i)]++] = static_cast<uint32_t>(i);

  const uint32_t batch = cap_log(n);
  ExchangeRounds rounds(std::max(min_rounds, (max_k + batch - 1) / batch));
  for (uint32_t r = 0; r < rounds.size(); ++r) {
    for (NodeId u = 0; u < n; ++u) {
      const uint32_t end = std::min(off[u] + (r + 1) * batch, off[u + 1]);
      for (uint32_t j = off[u] + r * batch; j < end; ++j) rounds[r].push_back(entry(order[j]));
    }
  }
  return rounds;
}

ExchangeRounds random_rounds(NodeId n, uint32_t ell_hat, Rng rng,
                             const std::vector<ExchangeEntry>& entries) {
  ExchangeRounds rounds(std::max<uint32_t>(1, (ell_hat + cap_log(n) - 1) / cap_log(n)));
  for (const ExchangeEntry& e : entries) rounds[rng.next_below(rounds.size())].push_back(e);
  return rounds;
}

std::vector<std::vector<AggPacket>> inject_at_random_columns(
    const Overlay& topo, Network& net, Rng rng, uint32_t tag, uint8_t words, size_t count,
    FnRef<NodeId(size_t)> sender, FnRef<AggPacket(size_t, NodeId)> packet) {
  const NodeId cols = topo.columns();
  ExchangeRounds rounds = batched_rounds(topo.n(), count, sender, 0, [&](size_t i) {
    const NodeId c = static_cast<NodeId>(rng.next_below(cols));
    const AggPacket p = packet(i, c);
    return ExchangeEntry{sender(i), topo.host(c), p.group, p.val};
  });
  // Columns are hosted by the same-numbered node, so an arrival's receiver
  // is its column.
  std::vector<std::vector<AggPacket>> at_col(cols);
  run_exchange(net, rounds, tag, words,
               [&](NodeId c, uint64_t group, const Val& v) { at_col[c].push_back({group, v}); });
  return at_col;
}

std::vector<ExchangeEntry> root_deliveries(const Overlay& topo, const Network& net,
                                           DownResult& down, FnRef<NodeId(uint64_t)> target) {
  std::vector<ExchangeEntry> entries;
  entries.reserve(down.root_values.size());
  down.root_values.for_each([&](uint64_t g, const Val& v) {
    const NodeId to = target(g);
    if (to >= topo.n()) {
      NCC_ASSERT_MSG(net.corruption_possible(), "root value for a group that names no node");
      ++down.stats.misrouted;
      return;
    }
    entries.push_back({topo.host(down.root_col.at(g)), to, g, v});
  });
  std::sort(entries.begin(), entries.end(),
            [](const ExchangeEntry& a, const ExchangeEntry& b) { return a.group < b.group; });
  return entries;
}

FlatMap<Val> hand_off_to_roots(const Overlay& topo, Network& net, const MulticastTrees& trees,
                               const std::vector<MulticastSend>& sends, uint32_t tag) {
  std::vector<const MulticastSend*> live;
  for (const MulticastSend& s : sends) {
    NCC_ASSERT(s.source < topo.n());
    // A group with no members, or one served entirely from cache roots (no
    // request reached the final level), has no root to hand off to.
    if (trees.root_col.find(s.group)) live.push_back(&s);
  }
  ExchangeRounds handoff = batched_rounds(
      topo.n(), live.size(), [&](size_t i) { return live[i]->source; }, 1, [&](size_t i) {
        return ExchangeEntry{live[i]->source, topo.host(trees.root_col.at(live[i]->group)),
                             live[i]->group, live[i]->payload};
      });
  // Receivers land in column order, which fixes the emplace order (first
  // write wins).
  FlatMap<Val> payloads;
  run_exchange(net, handoff, tag, 3,
               [&](NodeId, uint64_t group, const Val& v) { payloads.emplace(group, v); });
  return payloads;
}

void for_each_leaf_payload(const MulticastTrees& trees,
                           const std::vector<std::vector<AggPacket>>& at_col,
                           FnRef<void(NodeId, uint64_t, NodeId, const Val&)> fn) {
  FlatMap<Val> here;  // payload per group present at the leaf column
  for (NodeId c = 0; c < at_col.size(); ++c) {
    if (!here.empty()) here.clear();
    for (const AggPacket& p : at_col[c]) here.emplace(p.group, p.val);
    for (const auto& [group, member] : trees.leaf_members[c]) {
      if (const Val* pv = here.find(group)) fn(c, group, member, *pv);
    }
  }
}

}  // namespace ncc
