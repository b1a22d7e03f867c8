// Per-node / per-overlay-host congestion accounting: the second layer of the
// observability subsystem.
//
// The paper's cost claims bound the per-round in-degree at overlay hosts
// (congestion <= receive capacity); the augmented cube's aggregation tree in
// particular concentrates up to 2d-1 in-messages per round at the root's
// host (see overlay/overlay.hpp and the capacity_factor >= 2 floor in
// README). CongestionMonitor turns that hand-derivation into measurement: it
// subscribes to the Network's delivery stream (coexisting with
// MetricsCollector / Tracer — hooks are ordered subscriber lists) and
// accumulates, per round, the in-degree of every receiving node, folding the
// per-round view into
//  * the peak per-round in-degree, with the node and round it occurred at;
//  * a log2 histogram of per-(node, round) in-degrees;
//  * cumulative per-node delivered-message totals (hottest-host ranking and
//    per-overlay-column load: column c is hosted by node c < 2^d);
//  * a per-round max-in-degree series (capped, truncation flagged).
// Everything is derived from the delivered inboxes, which are thread-count
// invariant — the emitted JSON is byte-identical at threads=1 vs threads=T.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"

namespace ncc::obs {

class CongestionMonitor {
 public:
  /// Subscribes to `net`'s delivery stream; unsubscribes on destruction.
  /// Nodes below 2^floor(log2 n) host overlay columns (the shared emulation
  /// frame of every overlay); the rest are attach-only nodes.
  explicit CongestionMonitor(Network& net, size_t max_rounds = 512);
  ~CongestionMonitor();

  CongestionMonitor(const CongestionMonitor&) = delete;
  CongestionMonitor& operator=(const CongestionMonitor&) = delete;

  /// Max messages one node received in a single round, and where/when.
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

  /// Per-round max in-degree series (capped at max_rounds entries).
  const std::vector<uint32_t>& max_in_degree_series() const { return series_; }
  bool series_truncated() const { return series_truncated_; }

  /// Emit the deterministic congestion section.
  void write_json(JsonWriter& w) const;

 private:
  void on_deliver(const Message& m);
  void close_round(uint64_t round);

  Network& net_;
  Network::HookId delivery_id_ = 0;
  Network::HookId round_id_ = 0;
  NodeId columns_;
  size_t max_rounds_;

  // Current-round scratch, folded by the round hook at every end_round()
  // (which runs after delivery — so the fold always sees the full round).
  std::vector<uint32_t> in_degree_;
  std::vector<NodeId> touched_;

  uint32_t peak_in_degree_ = 0;
  NodeId peak_node_ = 0;
  uint64_t peak_round_ = 0;
  std::vector<uint32_t> node_peak_;
  std::vector<uint64_t> node_total_;
  uint64_t host_messages_ = 0;
  uint64_t attach_messages_ = 0;
  std::vector<uint64_t> hist_;
  std::vector<uint32_t> series_;
  bool series_truncated_ = false;
};

}  // namespace ncc::obs
