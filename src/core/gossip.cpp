#include "core/gossip.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "engine/node_program.hpp"
#include "obs/tracer.hpp"

namespace ncc {

namespace {
constexpr uint32_t kTagToken = 0x5000;

// Gossip as a NodeProgram: in round r, node u sends its token to the next
// `cap` nodes in cyclic order — every node receives exactly `cap` distinct
// tokens per round, saturating the receive capacity, which is what makes the
// bound tight. The round-global cursor advances in done(), at the barrier.
class GossipProgram final : public NodeProgram {
 public:
  explicit GossipProgram(Network& net)
      : net_(net), n_(net.n()), received_(net.n(), 1) {
    batch_ = next_batch();
  }

  void step(NodeId u, uint64_t, const InboxView&, Network& out) override {
    for (uint64_t j = 1; j <= batch_; ++j) {
      NodeId dst = static_cast<NodeId>((u + sent_offset_ + j) % n_);
      out.send(u, dst, kTagToken, {u});
    }
  }

  bool done(uint64_t) override {
    // received[u] counts tokens at u (own token known from the start).
    for (NodeId u = 0; u < n_; ++u)
      received_[u] += static_cast<uint32_t>(net_.inbox(u).size());
    sent_offset_ += batch_;
    if (sent_offset_ >= n_ - 1) return true;
    batch_ = next_batch();
    return false;
  }

  bool complete() const {
    for (NodeId u = 0; u < n_; ++u)
      if (received_[u] != n_) return false;
    return true;
  }

 private:
  uint64_t next_batch() const {
    return std::min<uint64_t>(net_.cap(), n_ - 1 - sent_offset_);
  }

  Network& net_;
  NodeId n_;
  std::vector<uint32_t> received_;
  uint64_t sent_offset_ = 0;  // how many cyclic successors served so far
  uint64_t batch_ = 0;
};

}  // namespace

GossipResult run_gossip(Network& net, uint64_t max_rounds) {
  obs::Span span(net, "gossip");
  GossipProgram prog(net);
  ProgramResult run = run_program(net, prog, max_rounds);
  GossipResult res;
  res.rounds = run.rounds;
  res.complete = prog.complete();
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
