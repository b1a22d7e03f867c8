// Machine-readable metrics for scenario runs.
//
// MetricsCollector subscribes to the Network's round-hook stream and records
// per-round deltas (messages sent, capacity drops, fault drops) plus
// streaming summaries (common/stats Accumulator). The JSON emitter lives in
// obs/json.hpp (the observability layer sits below scenario).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"

namespace ncc::scenario {

/// Per-round series; capped at `max_rounds` entries (the `truncated` flag
/// records that the tail was elided, never silently).
struct PerRoundSeries {
  std::vector<uint64_t> sent;
  std::vector<uint64_t> dropped;    // capacity drops + fault drops
  std::vector<uint64_t> corrupted;  // byzantine payload corruptions
  uint64_t rounds = 0;
  bool truncated = false;
};

class MetricsCollector {
 public:
  explicit MetricsCollector(Network& net, size_t max_rounds = 512);
  ~MetricsCollector();

  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  const PerRoundSeries& series() const { return series_; }
  const Accumulator& sent_per_round() const { return sent_acc_; }

  /// Emit the per-round section into `w` (an object: series + summary).
  void write_json(obs::JsonWriter& w) const;

 private:
  Network& net_;
  Network::HookId hook_id_ = 0;
  size_t max_rounds_;
  PerRoundSeries series_;
  Accumulator sent_acc_;
  uint64_t last_sent_ = 0;
  uint64_t last_dropped_ = 0;
  uint64_t last_corrupted_ = 0;
};

}  // namespace ncc::scenario
