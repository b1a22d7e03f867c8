#include "scenario/metrics.hpp"

namespace ncc::scenario {

MetricsCollector::MetricsCollector(Network& net, size_t max_rounds)
    : net_(net), max_rounds_(max_rounds) {
  hook_id_ = net_.add_round_hook([this](uint64_t, const NetStats& s) {
    uint64_t sent = s.messages_sent - last_sent_;
    uint64_t dropped = (s.messages_dropped + s.fault_drops) - last_dropped_;
    uint64_t corrupted = s.corrupted - last_corrupted_;
    last_sent_ = s.messages_sent;
    last_dropped_ = s.messages_dropped + s.fault_drops;
    last_corrupted_ = s.corrupted;
    sent_acc_.add(static_cast<double>(sent));
    ++series_.rounds;
    if (series_.sent.size() < max_rounds_) {
      series_.sent.push_back(sent);
      series_.dropped.push_back(dropped);
      series_.corrupted.push_back(corrupted);
    } else {
      series_.truncated = true;
    }
  });
}

MetricsCollector::~MetricsCollector() { net_.remove_round_hook(hook_id_); }

void MetricsCollector::write_json(obs::JsonWriter& w) const {
  w.begin_object();
  w.kv("rounds", series_.rounds);
  w.kv("mean_sent", sent_acc_.mean());
  w.kv("peak_sent", sent_acc_.max());
  w.kv("truncated", series_.truncated);
  w.key("sent");
  w.begin_array();
  for (uint64_t v : series_.sent) w.value(v);
  w.end_array();
  w.key("dropped");
  w.begin_array();
  for (uint64_t v : series_.dropped) w.value(v);
  w.end_array();
  w.key("corrupted");
  w.begin_array();
  for (uint64_t v : series_.corrupted) w.value(v);
  w.end_array();
  w.end_object();
}

}  // namespace ncc::scenario
