#include "obs/round_ledger.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace ncc::obs {

namespace {

template <typename T>
void write_array(JsonWriter& w, const char* key, const std::vector<T>& values) {
  w.key(key);
  w.begin_array();
  for (T v : values) w.value(v);
  w.end_array();
}

}  // namespace

RoundLedger::RoundLedger(Network& net)
    : net_(net),
      base_(net.stats()),
      columns_(NodeId{1} << floor_log2(net.n())),
      node_peak_(net.n(), 0),
      node_total_(net.n(), 0),
      hist_(33, 0) {
  hook_id_ = net_.add_round_hook(
      [this](uint64_t round, const NetStats& s) { on_round(round, s); });
}

RoundLedger::~RoundLedger() { net_.remove_round_hook(hook_id_); }

void RoundLedger::on_round(uint64_t round, const NetStats& s) {
  const uint64_t sent = s.messages_sent - base_.messages_sent;
  const uint64_t dropped = (s.messages_dropped + s.fault_drops) -
                           (base_.messages_dropped + base_.fault_drops);
  const uint64_t corrupted = s.corrupted - base_.corrupted;
  base_ = s;
  sent_acc_.add(static_cast<double>(sent));

  // The delivered lists are in arrival order, not id order: among equal
  // in-degrees the smallest id is the round's peak node.
  uint32_t round_max = 0;
  NodeId round_node = 0;
  net_.for_each_delivered([&](NodeId u, uint32_t deg) {
    ++hist_[floor_log2(deg)];
    node_peak_[u] = std::max(node_peak_[u], deg);
    node_total_[u] += deg;
    (u < columns_ ? host_messages_ : attach_messages_) += deg;
    if (deg > round_max || (deg == round_max && u < round_node)) {
      round_max = deg;
      round_node = u;
    }
  });
  if (round_max > peak_in_degree_) {
    peak_in_degree_ = round_max;
    peak_node_ = round_node;
    peak_round_ = round;
  }

  ++rounds_;
  if (sent_.size() < kMaxRounds) {
    sent_.push_back(sent);
    dropped_.push_back(dropped);
    corrupted_.push_back(corrupted);
    max_in_degree_.push_back(round_max);
  } else {
    truncated_ = true;
  }
}

std::vector<uint64_t> RoundLedger::live_bytes() const {
  std::vector<uint64_t> bytes(sent_.size());
  for (size_t r = 0; r < sent_.size(); ++r) bytes[r] = sent_[r] * sizeof(Message);
  return bytes;
}

std::vector<std::pair<NodeId, uint64_t>> RoundLedger::hottest(size_t k) const {
  std::vector<std::pair<NodeId, uint64_t>> all;
  for (NodeId u = 0; u < static_cast<NodeId>(node_total_.size()); ++u)
    if (node_total_[u] > 0) all.emplace_back(u, node_total_[u]);
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

void RoundLedger::write_per_round_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("rounds", rounds_);
  w.kv("mean_sent", sent_acc_.mean());
  w.kv("peak_sent", sent_acc_.max());
  w.kv("truncated", truncated_);
  write_array(w, "sent", sent_);
  write_array(w, "dropped", dropped_);
  write_array(w, "corrupted", corrupted_);
  w.end_object();
}

void RoundLedger::write_congestion_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("peak_in_degree", uint64_t{peak_in_degree_});
  w.kv("peak_node", uint64_t{peak_node_});
  w.kv("peak_round", peak_round_);
  w.kv("columns", uint64_t{columns_});
  w.kv("host_messages", host_messages_);
  w.kv("attach_messages", attach_messages_);
  w.key("degree_hist");
  w.begin_array();
  // Trailing zero buckets are elided (the array length is data-dependent but
  // deterministic).
  size_t last = 0;
  for (size_t b = 0; b < hist_.size(); ++b)
    if (hist_[b] > 0) last = b + 1;
  for (size_t b = 0; b < last; ++b) w.value(hist_[b]);
  w.end_array();
  w.key("hottest_hosts");
  w.begin_array();
  for (const auto& [u, total] : hottest(8)) {
    w.begin_object();
    w.kv("node", uint64_t{u});
    w.kv("messages", total);
    w.end_object();
  }
  w.end_array();
  w.kv("series_truncated", truncated_);
  write_array(w, "max_in_degree", max_in_degree_);
  w.end_object();
}

void RoundLedger::write_memory_json(JsonWriter& w) const {
  const NetMemStats& nm = net_.mem_stats();
  w.begin_object();
  w.kv("live_msgs_peak", nm.live_msgs_peak);
  w.kv("live_bytes_peak", nm.live_bytes_peak);
  w.kv("container_bytes_peak", nm.container_bytes_peak);
  w.kv("net_allocs", nm.allocs);
  w.kv("series_truncated", truncated_);
  w.end_object();
}

}  // namespace ncc::obs
