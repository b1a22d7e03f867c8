// The exchange step the Section 2 primitives (Theorems 2.3-2.6) are built
// from: nodes hand tagged (group, value) items to other nodes — ceil(log n)
// per sender per round, or each in a round drawn from {1..ceil(l_hat/log n)}
// — and the receivers fold the arrivals.
//
// A primitive first builds the whole schedule (drawing its randomness while
// it does, in a fixed order), then run_exchange plays it. The runner draws
// nothing, so it cannot perturb any random stream. Internal to primitives/,
// like the steps at the end, which several primitives share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fn_ref.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "overlay/router.hpp"
#include "primitives/multicast.hpp"

namespace ncc {

/// One item of an exchange round: `from` hands (group, val) to `to`.
struct ExchangeEntry {
  NodeId from;
  NodeId to;
  uint64_t group;
  Val val;
};

/// Per exchange round, its entries in send order.
using ExchangeRounds = std::vector<std::vector<ExchangeEntry>>;

/// Plays `rounds`. Each round runs its sends in one engine_send_loop: an
/// entry with from == to lands at once, every other one is sent with `tag` as
/// (group, val[0]) if `words` is 2, else as (group, val[0], val[1]). Then the
/// round ends and the tagged arrivals land in ascending receiver id, in inbox
/// order per receiver. land(to, group, val) sees a 2-word arrival's val as
/// {val[0], 0}.
void run_exchange(Network& net, const ExchangeRounds& rounds, uint32_t tag, uint8_t words,
                  FnRef<void(NodeId, uint64_t, const Val&)> land);

/// The batched handoff of items 0..count-1: sender(i) < n (asserted) hands
/// out its items in input order, ceil(log n) per round, over max(min_rounds,
/// ceil(k / log n)) rounds, k being the most items one sender holds.
/// entry(i) makes item i's entry; it is called in (round, sender, position)
/// order, the order callers draw randomness in.
ExchangeRounds batched_rounds(NodeId n, size_t count, FnRef<NodeId(size_t)> sender,
                              uint32_t min_rounds, FnRef<ExchangeEntry(size_t)> entry);

/// The random-round schedule: each of `entries`, in order, goes to a round
/// drawn from `rng`, uniformly from max(1, ceil(ell_hat / log n)) rounds.
ExchangeRounds random_rounds(NodeId n, uint32_t ell_hat, Rng rng,
                             const std::vector<ExchangeEntry>& entries);

// Steps several primitives share.

/// The random injection the Aggregation preprocessing, the multicast tree
/// setup and the multi-aggregation redistribution share: item i goes from
/// sender(i) to the host of a level-0 column drawn from `rng`, in
/// batched_rounds order, as the packet packet(i, column). Returns the packets
/// landed per column.
std::vector<std::vector<AggPacket>> inject_at_random_columns(
    const Overlay& topo, Network& net, Rng rng, uint32_t tag, uint8_t words, size_t count,
    FnRef<NodeId(size_t)> sender, FnRef<AggPacket(size_t, NodeId)> packet);

/// One entry per group of `down` in ascending group order (a deterministic
/// order for the callers' draws): the host of the group's root column sends
/// the group's aggregate to target(group). A target that is not a node can
/// only come from a group id that byzantine corruption rewrote in flight: if
/// `net` can corrupt, that group is counted in down.stats.misrouted and
/// dropped; on a reliable network target(group) < n is asserted.
std::vector<ExchangeEntry> root_deliveries(const Overlay& topo, const Network& net,
                                           DownResult& down, FnRef<NodeId(uint64_t)> target);

/// The source-to-root handoff, sent with `tag`: at least one round, sends of
/// groups without a recorded root skipped. Returns group -> payload at the
/// roots. It lasts ceil(k / log n) rounds, k the most payloads any source
/// holds, and the callers start route_up right after it, without a barrier.
/// That takes k (or a bound on it) to be an input every node knows, as the
/// paper's l_hat is: in its multicast every source holds one payload, so the
/// handoff is a single round. bench_hotkey's uniform rows source 32 payloads
/// per node (a 6-round handoff at n = 64); its harness fixes that count, as
/// it fixes the ell_hat it passes, before the wave starts.
FlatMap<Val> hand_off_to_roots(const Overlay& topo, Network& net, const MulticastTrees& trees,
                               const std::vector<MulticastSend>& sends, uint32_t tag);

/// The leaf join: for every recorded leaf (column c, group, member) whose
/// group's payload reached c in `at_col` (route_up's output), in column
/// order and then recorded order, calls fn(c, group, member, payload).
void for_each_leaf_payload(const MulticastTrees& trees,
                           const std::vector<std::vector<AggPacket>>& at_col,
                           FnRef<void(NodeId, uint64_t, NodeId, const Val&)> fn);

}  // namespace ncc
