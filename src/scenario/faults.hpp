// Network-layer fault injection for scenarios.
//
// A FaultInjector installs Network fault hooks realizing the FaultModel of a
// ScenarioSpec: seeded crash-stop node failures at scheduled rounds, a
// per-round uniform message-drop rate, periodic receive-capacity
// perturbation, a partition/heal schedule (a seeded bipartition of the node
// set drops cross-cut messages while one of the declared round windows is
// open), and byzantine payload corruption (seeded per-message mutations that
// keep the message well-formed — node-id-plausible words are remapped within
// [0, n), larger words get one bit flipped). Every decision is a stateless
// hash of (seed, round, pending-index / node id), and all hooks run at the
// top of end_round() over the pending messages in send order — so fault
// injection is a pure function of (spec, seed).
//
// The injector also enforces the spec's round limit: the paper's algorithms
// assume a reliable network, and token-based termination (the butterfly
// routing of Section 2) can wait forever on a lost token. Exceeding the
// limit throws RoundLimitReached, which the scenario runner converts into a
// "round_limit" verdict.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/network.hpp"
#include "scenario/spec.hpp"

namespace ncc::scenario {

struct RoundLimitReached : std::runtime_error {
  explicit RoundLimitReached(uint64_t at_round)
      : std::runtime_error("round limit reached at round " + std::to_string(at_round)),
        round(at_round) {}
  uint64_t round;
};

class FaultInjector {
 public:
  /// Installs fault hooks on `net` for the spec's fault model (and round
  /// limit, if any). `round_limit` == 0 means unlimited.
  FaultInjector(Network& net, const FaultModel& model, uint64_t seed,
                uint64_t round_limit);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Nodes crashed so far (crash-stop is permanent).
  uint32_t crashed_count() const { return crashed_count_; }
  const std::vector<uint8_t>& crashed() const { return crashed_; }

  /// The seeded bipartition (1 = side A); fixed for the whole run, only
  /// *enforced* while a partition window is open. Empty when the model has no
  /// partition schedule.
  const std::vector<uint8_t>& partition_side() const { return side_; }
  /// Whether the partition cut is active in `round`.
  bool partition_active(uint64_t round) const;

 private:
  void advance_to(uint64_t round);  // fire pending crash batches

  Network& net_;
  FaultModel model_;
  uint64_t seed_;
  uint64_t round_limit_;
  std::vector<uint8_t> crashed_;
  uint32_t crashed_count_ = 0;
  size_t next_batch_ = 0;  // index into sorted crash_rounds
  std::vector<uint64_t> crash_schedule_;
  std::vector<uint8_t> side_;       // partition bipartition (1 = side A)
  bool cut_active_ = false;         // partition window open this round
};

}  // namespace ncc::scenario
