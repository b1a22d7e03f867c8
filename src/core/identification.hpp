// The Identification Algorithm (Section 4.1).
//
// Learning nodes L and playing nodes P: every playing node knows a superset
// of its neighbors that may be learning; every learning node u must determine
// which of its candidate neighbors are playing. Directed edges are hashed
// into q trials by s shared hash functions; playing nodes aggregate
// (XOR of arc ids, count) per (learning neighbor, trial) group toward the
// learning node, which then peels its *red* edges (edges to non-playing
// neighbors) one at a time from trials containing exactly one red edge —
// exactly the XOR-decoding of Lemma 4.2.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "primitives/context.hpp"

namespace ncc {

struct IdentificationParams {
  uint32_t s = 4;  // number of hash functions (paper: constant c or c log n)
  uint32_t q = 64; // number of trials (paper: 4ec d* log n or 4ec log^2 n)
  /// Trials the caller budgets per unit of red degree (its 4ec log n factor)
  /// when `q` was scaled by an aggregate-decoded degree bound d*. Enables the
  /// poisoned-schedule recovery: on a network that can corrupt payloads, a
  /// `q` beyond q_unit * (max candidate-set size) cannot come from an honest
  /// d* — the aggregate is re-derived with a fresh Aggregate-and-Broadcast
  /// over the candidate degrees and `q` is clamped, instead of letting a
  /// byzantine word stretch the delivery schedule past any round budget.
  /// 0 (the default) trusts `q` unconditionally.
  uint32_t q_unit = 0;
};

struct IdentificationInput {
  /// Learning nodes with their candidate neighbor sets (u locally knows which
  /// neighbors are still unclassified).
  std::vector<NodeId> learning;
  std::vector<std::vector<NodeId>> candidates;  // parallel to learning
  /// Playing nodes with their potentially-learning neighbor lists.
  std::vector<NodeId> playing;
  std::vector<std::vector<NodeId>> potential;  // parallel to playing
};

struct IdentificationResult {
  /// Parallel to input.learning: identified red neighbors (not playing).
  std::vector<std::vector<NodeId>> red;
  /// Parallel to input.learning: true iff u decoded *all* of its red edges,
  /// i.e., every remaining candidate is certainly playing.
  std::vector<bool> success;
  /// Parallel to input.learning: true iff u's sketch shows a state that no
  /// hash collision can produce (a peeled arc that is not a remaining
  /// candidate, or a trial with more playing arcs than candidates), so the
  /// aggregate was damaged in flight. Retrying with fresh hash functions
  /// cures a collision, not a damaged aggregate.
  std::vector<bool> damaged;
  uint64_t rounds = 0;
};

IdentificationResult run_identification(const Shared& shared, Network& net,
                                        const IdentificationInput& input,
                                        const IdentificationParams& params,
                                        uint64_t rng_tag);

}  // namespace ncc
