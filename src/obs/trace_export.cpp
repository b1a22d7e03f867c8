#include "obs/trace_export.hpp"

#include <algorithm>

namespace ncc::obs {

namespace {

constexpr uint64_t kPhaseTid = 1;
constexpr uint64_t kCounterTid = 2;
constexpr uint64_t kMemoryTid = 3;
constexpr uint64_t kCacheTid = 4;
constexpr uint64_t kFlowTidBase = 10;  // + flow id; flows are capped well below 90
constexpr uint64_t kShardTidBase = 100;

void write_event_head(JsonWriter& w, const char* ph, uint64_t pid, uint64_t tid,
                      const std::string& name, uint64_t ts_us) {
  w.kv("ph", ph);
  w.kv("pid", pid);
  w.kv("tid", tid);
  w.kv("name", name);
  w.kv("ts", ts_us);
}

void write_metadata(JsonWriter& w, uint64_t pid, uint64_t tid,
                    const char* what, const std::string& name) {
  w.begin_object();
  w.kv("ph", "M");
  w.kv("pid", pid);
  w.kv("tid", tid);
  w.kv("name", what);
  w.key("args");
  w.begin_object();
  w.kv("name", name);
  w.end_object();
  w.end_object();
}

void write_cell(JsonWriter& w, const TraceCell& cell, uint64_t pid,
                bool include_timing) {
  write_metadata(w, pid, 0, "process_name", cell.name);
  write_metadata(w, pid, kPhaseTid, "thread_name", "phases");
  if (!cell.max_in_degree.empty())
    write_metadata(w, pid, kCounterTid, "thread_name", "congestion");
  if (!cell.live_bytes.empty())
    write_metadata(w, pid, kMemoryTid, "thread_name", "memory");
  if (!cell.cache_series.empty())
    write_metadata(w, pid, kCacheTid, "thread_name", "cache");
  for (const SampledFlow& f : cell.flows)
    write_metadata(w, pid, kFlowTidBase + f.id, "thread_name",
                   "flow g" + std::to_string(f.group) +
                       (f.up ? " up" : " down"));

  // Phase spans: complete events in begin order (ts is nondecreasing, which
  // the trace checker asserts per track). Nesting renders automatically from
  // overlapping ts/dur; parents precede children because spans are recorded
  // in begin order.
  for (const SpanRecord& s : cell.spans) {
    w.begin_object();
    write_event_head(w, "X", pid, kPhaseTid, s.name, s.begin_round * kTraceRoundUs);
    w.kv("dur", (s.end_round - s.begin_round) * kTraceRoundUs);
    w.key("args");
    w.begin_object();
    w.kv("depth", uint64_t{s.depth});
    w.kv("rounds", s.end_round - s.begin_round);
    w.kv("charged", s.charged);
    w.kv("messages", s.messages);
    w.kv("dropped", s.dropped);
    w.kv("fault_drops", s.fault_drops);
    w.kv("corrupted", s.corrupted);
    w.end_object();
    w.end_object();
  }

  // Per-round congestion counter.
  for (size_t r = 0; r < cell.max_in_degree.size(); ++r) {
    w.begin_object();
    write_event_head(w, "C", pid, kCounterTid, "max_in_degree",
                     static_cast<uint64_t>(r) * kTraceRoundUs);
    w.key("args");
    w.begin_object();
    w.kv("value", cell.max_in_degree[r]);
    w.end_object();
    w.end_object();
  }

  // Per-round live-message-bytes memory counter. Like the congestion track
  // this is deterministic (message counts are part of the engine contract),
  // so it stays in the byte-compared trace.
  for (size_t r = 0; r < cell.live_bytes.size(); ++r) {
    w.begin_object();
    write_event_head(w, "C", pid, kMemoryTid, "live_msg_bytes",
                     static_cast<uint64_t>(r) * kTraceRoundUs);
    w.key("args");
    w.begin_object();
    w.kv("value", cell.live_bytes[r]);
    w.end_object();
    w.end_object();
  }

  // Combining-cache hit-rate counter: one sample per request wave, value =
  // cumulative hits as an integer percentage of cumulative lookups (integral
  // so the emitted bytes are exact). Deterministic — the cache mutates only
  // at the router's sequential merge points — so the track is safe to keep
  // in byte-compared traces; cache-off runs simply have no samples.
  for (const auto& sample : cell.cache_series) {
    w.begin_object();
    write_event_head(w, "C", pid, kCacheTid, "cache_hit_rate",
                     sample[0] * kTraceRoundUs);
    w.key("args");
    w.begin_object();
    w.kv("value", sample[1] * 100 / std::max<uint64_t>(1, sample[2]));
    w.end_object();
    w.end_object();
  }

  // Sampled token flows: each flow gets its own track (different flows
  // overlap in time, so sharing one track would break per-track ts
  // monotonicity), carrying one short slice per hop chained by flow events
  // ("s" at the first hop, "t" between, "f" at the last) that share the
  // flow's id — in the Perfetto UI the journey renders as arrows between
  // the hop slices. Hops are recorded in execution order, so within one
  // flow rounds never decrease. Single-hop flows get their slice but no
  // arrows (a flow chain needs both ends), which keeps begin/end ids
  // matched — the invariant trace_check enforces.
  for (const SampledFlow& f : cell.flows) {
    // Built with += (not `"g" + std::to_string(...)`) to sidestep GCC 12's
    // spurious -Wrestrict on operator+(const char*, string&&).
    std::string label = "g";
    label += std::to_string(f.group);
    label += f.up ? " up" : " down";
    for (size_t h = 0; h < f.hops.size(); ++h) {
      const FlowHop& hop = f.hops[h];
      uint64_t ts = hop.round * kTraceRoundUs;
      w.begin_object();
      write_event_head(w, "X", pid, kFlowTidBase + f.id,
                       label + " L" + std::to_string(hop.level), ts);
      w.kv("dur", kTraceRoundUs / 2);
      w.key("args");
      w.begin_object();
      w.kv("level", static_cast<uint64_t>(hop.level));
      w.kv("edge", static_cast<uint64_t>(hop.edge));
      w.kv("host", static_cast<uint64_t>(hop.host));
      if (hop.cache_hit) w.kv("cache_hit", true);
      w.end_object();
      w.end_object();
      if (f.hops.size() < 2) continue;
      const char* ph = h == 0 ? "s" : (h + 1 == f.hops.size() ? "f" : "t");
      w.begin_object();
      write_event_head(w, ph, pid, kFlowTidBase + f.id, label, ts);
      w.kv("cat", "flow");
      w.kv("id", f.id);
      if (ph[0] == 'f') w.kv("bp", "e");  // bind the end to the enclosing slice
      w.end_object();
    }
  }

  // Wall-clock engine profile: three back-to-back duration events
  // showing the stage/merge/deliver split. Excluded from deterministic
  // traces — wall time is not reproducible.
  if (!include_timing) return;
  for (size_t s = 0; s < cell.shard_timing.size(); ++s) {
    const EngineShardTiming& tm = cell.shard_timing[s];
    if (tm.stage_ns + tm.merge_ns + tm.deliver_ns == 0) continue;
    uint64_t tid = kShardTidBase + s;
    write_metadata(w, pid, tid, "thread_name", "shard " + std::to_string(s));
    uint64_t ts = 0;
    const struct {
      const char* name;
      uint64_t ns;
    } stages[] = {{"stage", tm.stage_ns},
                  {"merge", tm.merge_ns},
                  {"deliver", tm.deliver_ns}};
    for (const auto& st : stages) {
      uint64_t dur = st.ns / 1000;
      w.begin_object();
      write_event_head(w, "X", pid, tid, st.name, ts);
      w.kv("dur", dur);
      w.end_object();
      ts += dur;
    }
  }
}

}  // namespace

void write_chrome_trace(JsonWriter& w, const std::vector<TraceCell>& cells,
                        bool include_timing) {
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (size_t i = 0; i < cells.size(); ++i)
    write_cell(w, cells[i], i + 1, include_timing);
  w.end_array();
  w.end_object();
}

}  // namespace ncc::obs
