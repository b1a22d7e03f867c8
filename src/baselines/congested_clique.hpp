// A minimal Congested Clique comparator (Section 1's model-gap discussion).
//
// In the Congested Clique every node may exchange one O(log n)-bit message
// with *every* other node per round — Theta(n^2 log n) bits per round versus
// the NCC's Theta(n log^2 n). A tiny round simulator realizes gossip and
// broadcast in one round, demonstrating the gap concretely (asserted by the
// CongestedClique tests).
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "graph/graph.hpp"

namespace ncc {

/// Per-round, per-ordered-pair, single-message Congested Clique simulator.
class CongestedClique {
 public:
  explicit CongestedClique(NodeId n) : n_(n), inboxes_(n) {}

  NodeId n() const { return n_; }

  /// Queue one word for (src -> dst); at most one per ordered pair per round.
  void send(NodeId src, NodeId dst, uint64_t word);
  void end_round();
  /// Inbox of u: (src, word) pairs delivered at the start of this round.
  const std::vector<std::pair<NodeId, uint64_t>>& inbox(NodeId u) const {
    return inboxes_[u];
  }
  uint64_t rounds() const { return rounds_; }
  uint64_t messages() const { return messages_; }

  /// Max messages any node sent in a single round so far — the paper's
  /// communication degree complexity Delta' of Theorem A.1.
  uint32_t comm_degree() const { return comm_degree_; }

 private:
  struct Pending {
    NodeId src, dst;
    uint64_t word;
  };
  NodeId n_;
  uint64_t rounds_ = 0;
  uint64_t messages_ = 0;
  uint32_t comm_degree_ = 0;
  std::vector<Pending> pending_;
  FlatMap<uint8_t> used_pairs_;  // this round's (src, dst) pairs; membership only
  std::vector<std::vector<std::pair<NodeId, uint64_t>>> inboxes_;
};

/// Gossip (all-to-all tokens) in the Congested Clique: exactly 1 round.
uint64_t cc_gossip_rounds(CongestedClique& cc);

/// Broadcast in the Congested Clique: exactly 1 round.
uint64_t cc_broadcast_rounds(CongestedClique& cc);

}  // namespace ncc
