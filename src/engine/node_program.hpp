// NodeProgram: a per-node synchronous-round protocol. Every round, each node
// reads the inbox delivered at the round start and sends; the steps run in
// node order and the round closes at the barrier.
//
// Contract: step(u, ...) models node u's local computation, so it may only
// touch node-u state. Randomness must be derived from (seed, round, u), not
// drawn from a shared stream. done() runs between rounds and may inspect
// global state (inboxes, stats).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/engine.hpp"
#include "net/message.hpp"
#include "net/network.hpp"

namespace ncc {

class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// One round of node `u`: `inbox` views the messages delivered to u at the
  /// start of this round (in the network's flat inbox arena); send via `out`.
  virtual void step(NodeId u, uint64_t round, const InboxView& inbox,
                    Network& out) = 0;

  /// Called after each round barrier (sequentially); return true to stop.
  virtual bool done(uint64_t rounds_run) = 0;
};

struct ProgramResult {
  uint64_t rounds = 0;
};

/// Run `prog` on every node of `net` until done() returns true (or
/// max_rounds).
ProgramResult run_program(Network& net, NodeProgram& prog,
                          uint64_t max_rounds = UINT64_MAX);

}  // namespace ncc
