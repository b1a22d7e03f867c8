#include "baselines/congested_clique.hpp"

#include "common/assert.hpp"

namespace ncc {

void CongestedClique::send(NodeId src, NodeId dst, uint64_t word) {
  NCC_ASSERT(src < n_ && dst < n_ && src != dst);
  uint64_t pair = (static_cast<uint64_t>(src) << 32) | dst;
  NCC_ASSERT_MSG(used_pairs_.emplace(pair, 1).second,
                 "one message per ordered pair per round");
  pending_.push_back({src, dst, word});
  ++messages_;
}

void CongestedClique::end_round() {
  for (auto& box : inboxes_) box.clear();
  std::vector<uint32_t> sent(n_, 0);
  for (const Pending& p : pending_) {
    inboxes_[p.dst].emplace_back(p.src, p.word);
    comm_degree_ = std::max(comm_degree_, ++sent[p.src]);
  }
  pending_.clear();
  used_pairs_.clear();
  ++rounds_;
}

uint64_t cc_gossip_rounds(CongestedClique& cc) {
  uint64_t start = cc.rounds();
  for (NodeId u = 0; u < cc.n(); ++u)
    for (NodeId v = 0; v < cc.n(); ++v)
      if (u != v) cc.send(u, v, u);
  cc.end_round();
  // Verify everyone holds all tokens.
  for (NodeId u = 0; u < cc.n(); ++u)
    NCC_ASSERT(cc.inbox(u).size() == cc.n() - 1u);
  return cc.rounds() - start;
}

uint64_t cc_broadcast_rounds(CongestedClique& cc) {
  uint64_t start = cc.rounds();
  for (NodeId v = 1; v < cc.n(); ++v) cc.send(0, v, 42);
  cc.end_round();
  for (NodeId v = 1; v < cc.n(); ++v) NCC_ASSERT(cc.inbox(v).size() == 1);
  return cc.rounds() - start;
}

}  // namespace ncc
