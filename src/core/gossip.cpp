#include "core/gossip.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "engine/engine.hpp"
#include "obs/tracer.hpp"

namespace ncc {

namespace {
constexpr uint32_t kTagToken = 0x5000;
}  // namespace

// In round r, node u sends its token to the next `batch` nodes in cyclic
// order (batch = cap until the last round), so every node receives exactly
// `cap` distinct tokens per round, saturating the receive capacity, which is
// what makes the bound tight.
GossipResult run_gossip(Network& net, uint64_t max_rounds) {
  obs::Span span(net, "gossip");
  const NodeId n = net.n();
  // received[u] counts tokens at u (own token known from the start).
  std::vector<uint32_t> received(n, 1);
  uint64_t sent_offset = 0;  // how many cyclic successors served so far
  GossipResult res;
  while (res.rounds < max_rounds) {
    const uint64_t batch = std::min<uint64_t>(net.cap(), n - 1 - sent_offset);
    engine_send_loop(net, n, [&](uint64_t u, Network& out) {
      for (uint64_t j = 1; j <= batch; ++j)
        out.send(static_cast<NodeId>(u), static_cast<NodeId>((u + sent_offset + j) % n),
                 kTagToken, {u});
    });
    net.end_round();
    ++res.rounds;
    for (NodeId u = 0; u < n; ++u)
      received[u] += static_cast<uint32_t>(net.inbox(u).size());
    sent_offset += batch;
    if (sent_offset >= n - 1) break;
  }
  res.complete = std::all_of(received.begin(), received.end(),
                             [n](uint32_t c) { return c == n; });
  return res;
}

BroadcastResult run_broadcast(Network& net) {
  obs::Span span(net, "broadcast");
  const NodeId n = net.n();
  const uint32_t cap = net.cap();
  // The broadcast payload: a fixed magic well above any node id, so a
  // corrupted copy is a bit-flipped 64-bit value that never collides with it.
  constexpr uint64_t kPayload = 0xb40adca57'0000b07ULL;
  BroadcastResult res;
  std::vector<bool> informed(n, false);
  std::vector<uint64_t> token(n, 0);
  informed[0] = true;
  token[0] = kPayload;
  NodeId informed_cnt = 1;
  while (informed_cnt < n) {
    // Each informed node adopts `cap` uninformed successors, carved out of
    // the id space deterministically (informed nodes are always a prefix of
    // the doubling schedule, so ranks are locally computable). Nodes forward
    // the token they received, not a constant, so in-flight corruption
    // propagates down the fan-out tree like a real rumor would.
    std::vector<NodeId> informed_ids, uninformed_ids;
    for (NodeId u = 0; u < n; ++u)
      (informed[u] ? informed_ids : uninformed_ids).push_back(u);
    size_t next = 0;
    for (NodeId u : informed_ids) {
      for (uint32_t j = 0; j < cap && next < uninformed_ids.size(); ++j, ++next)
        net.send(u, uninformed_ids[next], kTagToken, {token[u]});
    }
    net.end_round();
    ++res.rounds;
    for (NodeId u = 0; u < n; ++u) {
      if (!informed[u] && !net.inbox(u).empty()) {
        informed[u] = true;
        token[u] = net.inbox(u).front().word(0);
        ++informed_cnt;
      }
    }
  }
  res.complete = true;
  for (NodeId u = 0; u < n; ++u)
    if (informed[u] && token[u] != kPayload) ++res.corrupted_tokens;
  return res;
}

}  // namespace ncc
