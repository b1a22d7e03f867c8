// The round ledger: one per-round observer for every scenario run.
//
// A RoundLedger subscribes one round hook to a Network and, at the end of
// every round, folds two things into columnar per-round vectors and running
// summaries:
//  * the round's NetStats deltas — messages sent, drops (receive-capacity
//    overflow + fault drops) and byzantine corruptions. Live message bytes
//    are not recorded: they are the sent column times sizeof(Message);
//  * congestion — the in-degree of every node that received messages this
//    round, read off the network's delivered-destination lists
//    (Network::for_each_delivered), folded into the peak per-round in-degree
//    (with its node and round), a log2 histogram of per-(node, round)
//    in-degrees, cumulative per-node totals (hottest hosts, and the
//    host/attach split at the overlay column boundary: column c is hosted by
//    node c < 2^floor(log2 n)), and a per-round max-in-degree column.
//
// The paper's cost claims bound exactly these numbers: each node receives
// O(log n) messages per round, and the augmented cube's aggregation tree
// puts up to 2d-1 in-messages per round on the root's host.
//
// Everything above is derived from NetStats and the delivered inboxes, so
// the per_round and congestion sections are a pure function of (spec,
// seed). The memory section is the exception: container capacities and
// allocation counts (NetMemStats) depend on the container layout and
// buffer-reuse history, so callers emit it only behind the memory flag
// (`ncc_run --memory`), never into determinism-compared bytes.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"

namespace ncc::obs {

class RoundLedger {
 public:
  /// Per-round columns hold the first kMaxRounds rounds; later rounds still
  /// fold into every summary and set truncated() (elided, never silently).
  static constexpr size_t kMaxRounds = 512;

  /// Subscribes to `net`'s round stream; unsubscribes on destruction.
  /// Deltas count from the stats at attachment.
  explicit RoundLedger(Network& net);
  ~RoundLedger();

  RoundLedger(const RoundLedger&) = delete;
  RoundLedger& operator=(const RoundLedger&) = delete;

  /// Rounds observed (not capped) and whether the columns were truncated.
  uint64_t rounds() const { return rounds_; }
  bool truncated() const { return truncated_; }

  /// Per-round columns, dense in round index (a quiet round is a 0 entry).
  const std::vector<uint64_t>& sent() const { return sent_; }
  const std::vector<uint64_t>& dropped() const { return dropped_; }  // capacity + fault
  const std::vector<uint64_t>& corrupted() const { return corrupted_; }
  const std::vector<uint32_t>& max_in_degree() const { return max_in_degree_; }
  /// Live message bytes per round: the sent column x sizeof(Message).
  std::vector<uint64_t> live_bytes() const;

  /// Streaming summary of messages sent per round, over every round. (The
  /// peak live bytes are NetMemStats::live_bytes_peak.)
  const Accumulator& sent_per_round() const { return sent_acc_; }

  /// Max messages one node received in a single round, and where/when
  /// (ties: the smallest node id of the earliest such round).
  uint32_t peak_in_degree() const { return peak_in_degree_; }
  NodeId peak_node() const { return peak_node_; }
  uint64_t peak_round() const { return peak_round_; }
  /// Max single-round in-degree node `u` ever saw (the AQ_d root-host bound
  /// check reads this for the tree root's host).
  uint32_t max_round_in_degree(NodeId u) const { return node_peak_[u]; }
  /// Cumulative delivered messages into node `u` (== column u's load for
  /// hosting nodes u < columns()).
  uint64_t node_messages(NodeId u) const { return node_total_[u]; }
  NodeId columns() const { return columns_; }
  uint64_t host_messages() const { return host_messages_; }
  uint64_t attach_messages() const { return attach_messages_; }
  /// hist[b] = number of (node, round) pairs whose in-degree was in
  /// [2^b, 2^(b+1)).
  const std::vector<uint64_t>& degree_histogram() const { return hist_; }
  /// Top-k nodes by cumulative delivered messages (ties: smaller id first).
  std::vector<std::pair<NodeId, uint64_t>> hottest(size_t k) const;

  /// The deterministic `per_round` section (summary + the three columns).
  void write_per_round_json(JsonWriter& w) const;
  /// The deterministic `congestion` section.
  void write_congestion_json(JsonWriter& w) const;
  /// The observational `memory` section; callers gate it behind the memory
  /// flag.
  void write_memory_json(JsonWriter& w) const;

 private:
  void on_round(uint64_t round, const NetStats& s);

  Network& net_;
  Network::HookId hook_id_ = 0;
  NetStats base_;  // cumulative stats at the previous round's end
  NodeId columns_;

  uint64_t rounds_ = 0;
  bool truncated_ = false;
  std::vector<uint64_t> sent_;
  std::vector<uint64_t> dropped_;
  std::vector<uint64_t> corrupted_;
  std::vector<uint32_t> max_in_degree_;
  Accumulator sent_acc_;

  uint32_t peak_in_degree_ = 0;
  NodeId peak_node_ = 0;
  uint64_t peak_round_ = 0;
  std::vector<uint32_t> node_peak_;
  std::vector<uint64_t> node_total_;
  uint64_t host_messages_ = 0;
  uint64_t attach_messages_ = 0;
  std::vector<uint64_t> hist_;
};

}  // namespace ncc::obs
