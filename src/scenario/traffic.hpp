// Traffic generators: which group each request targets.
//
// The scenario adapters for aggregate/multicast/multi_aggregation used to
// hard-code a uniform round-robin assignment (`value % groups`). The traffic
// axis makes that choice a first-class, sweepable spec key: `uniform`
// reproduces the historical stream bit-for-bit, `zipf` draws from a seeded
// Zipf-style distribution over a small hot-key universe — the workload shape
// the en-route combining cache (overlay/cache) is built to exploit, where a
// handful of groups absorb most of the request mass.
//
// Determinism: the sampler is a pure function of (spec, seed, draw index) —
// one Rng owned by the caller, advanced one draw per request in request
// order — so the generated stream is a pure function of (spec, seed).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "scenario/spec.hpp"

namespace ncc::scenario {

/// Seeded Zipf-style sampler over `keys` hot keys: key k is drawn with
/// probability proportional to 1/(k+1)^s. Sampling is CDF inversion (binary
/// search), one uniform draw per request.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t keys, double s);

  /// Draw one key in [0, keys).
  uint32_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;  // cumulative, cdf_.back() == 1.0
};

/// One request stream: maps the adapter's per-request index to a group id in
/// [0, groups) according to the spec's traffic axis. `uniform` is the
/// historical `index % groups`; `zipf` draws hot keys from a ZipfSampler
/// seeded by the caller (hot keys map onto groups round-robin when the
/// universe exceeds the group count).
class TrafficStream {
 public:
  TrafficStream(const ScenarioSpec& spec, uint64_t groups, uint64_t seed);

  /// Group targeted by request number `index` (callers must ask in request
  /// order — zipf mode advances the internal Rng one draw per call).
  uint64_t group_for(uint64_t index);

 private:
  uint64_t groups_;
  bool zipf_ = false;
  ZipfSampler sampler_;
  Rng rng_;
};

}  // namespace ncc::scenario
