// Chrome trace-event export: renders recorded observability data (phase
// spans, per-round congestion counters, the engine's wall-clock profile) as
// a trace-event JSON file loadable by chrome://tracing and Perfetto
// (ui.perfetto.dev).
//
// Mapping: each scenario run (one sweep cell, or the single run of flat
// mode) becomes one *process*; inside it, track (tid) 1 carries the phase
// spans as duration ("ph":"X") events, track 2 carries the per-round
// congestion counter ("ph":"C"), track 3 the per-round live-message-bytes
// memory counter, track 4 the combining-cache hit-rate counter (integer
// percent, sampled once per request wave; absent unless the scenario ran
// with `cache = lru`), tracks 10+id each carry one sampled token flow (hop
// slices chained by flow events "s"/"t"/"f" sharing the flow's id — one
// track per flow keeps per-track timestamps monotonic, since different
// flows overlap in time), and track 100 carries the engine's wall-clock
// stage/merge/deliver profile. The simulated round clock is mapped to trace time at
// 1 round = 1000 microseconds, so span durations read directly as round
// counts in the UI.
//
// Determinism: with include_timing=false the emitted bytes are a pure
// function of spans + counters + live bytes + sampled flows (all a pure
// function of (spec, seed)), so the trace file is byte-identical across
// `ncc_run --threads` values — the trace_determinism check compares exactly
// that. The wall-clock track only appears with include_timing=true.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "obs/flow.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"

namespace ncc::obs {

/// Everything the exporter needs from one scenario run.
struct TraceCell {
  std::string name;                    // process label, e.g. "bfs grid n=256 seed=1"
  uint64_t rounds = 0;                 // total simulated rounds
  std::vector<SpanRecord> spans;       // phase spans, in begin order
  std::vector<uint32_t> max_in_degree; // per-round congestion counter (may be capped)
  std::vector<uint64_t> live_bytes;    // per-round live message bytes (deterministic)
  std::vector<SampledFlow> flows;      // sampled token journeys (deterministic)
  /// Per-wave (round, cumulative cache hits, cumulative cache lookups)
  /// samples; empty unless the run used `cache = lru` (deterministic).
  std::vector<std::array<uint64_t, 3>> cache_series;
  std::vector<EngineShardTiming> shard_timing;  // the engine's profile, if timed
};

/// Trace-time scale: one simulated round rendered as this many microseconds.
inline constexpr uint64_t kTraceRoundUs = 1000;

/// Write the whole trace document (`{"traceEvents": [...]}`); `cells` become
/// processes pid 1..k. The wall-clock track is emitted only when
/// `include_timing` is set.
void write_chrome_trace(JsonWriter& w, const std::vector<TraceCell>& cells,
                        bool include_timing);

}  // namespace ncc::obs
