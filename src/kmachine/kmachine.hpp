// k-machine simulation accounting (Appendix A / Corollary 2).
//
// The k-machine model (Klauck et al.): k fully interconnected machines, each
// pair joined by a link carrying one O(log n)-bit message per round; the n
// graph nodes are assigned to machines by a random vertex partition, and a
// machine simulates all messages of its nodes. An NCC algorithm taking T
// rounds then needs, per NCC round, as many k-machine rounds as the most
// loaded link carries messages — summed over rounds this is ~O(n T / k^2),
// w.h.p., because each NCC round moves at most O(n log n) messages whose
// endpoints are (pairwise) uniformly distributed over the k^2 links.
//
// `KMachineTracker` subscribes a round hook to a Network and converts an
// actual NCC execution into its k-machine cost: at the end of every round it
// folds that round's delivered inboxes into per-link loads and adds the
// busiest link's load. Messages the network dropped (receive-capacity
// overflow, faults) were never delivered and load no link.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"

namespace ncc {

class KMachineTracker {
 public:
  /// Subscribes to `net`'s round stream (coexists with any other
  /// subscribers) and unsubscribes on destruction. `k` machines, random
  /// vertex partition from `seed`.
  KMachineTracker(Network& net, uint32_t k, uint64_t seed);
  ~KMachineTracker();

  KMachineTracker(const KMachineTracker&) = delete;
  KMachineTracker& operator=(const KMachineTracker&) = delete;

  uint32_t k() const { return k_; }
  uint32_t machine_of(NodeId u) const { return machine_[u]; }

  /// Sum over NCC rounds of the max per-link message load (the k-machine
  /// round count of the simulation; links are undirected, both directions
  /// share the budgeted bandwidth).
  uint64_t kmachine_rounds() const { return kmachine_rounds_; }

  /// Messages that crossed machine boundaries / stayed local.
  uint64_t remote_messages() const { return remote_messages_; }
  uint64_t local_messages() const { return local_messages_; }

 private:
  void on_round();

  Network& net_;
  Network::HookId hook_id_ = 0;
  uint32_t k_;
  std::vector<uint32_t> machine_;
  FlatMap<uint32_t> loads_;  // the closing round's per-link loads, never iterated
  uint64_t kmachine_rounds_ = 0;
  uint64_t remote_messages_ = 0;
  uint64_t local_messages_ = 0;
};

/// The analytic bound of Corollary 2 (without the polylog): n * T / k^2.
double kmachine_bound(NodeId n, uint64_t ncc_rounds, uint32_t k);

/// Theorem A.1 (Klauck et al.): a Congested Clique algorithm with M_C total
/// messages, T_C rounds and communication degree complexity Delta' simulates
/// in ~O(M_C/k^2 + T_C * Delta'/k) k-machine rounds (polylog omitted).
double kmachine_cc_bound(uint64_t total_messages, uint64_t cc_rounds,
                         uint32_t comm_degree, uint32_t k);

}  // namespace ncc
