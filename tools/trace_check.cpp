// trace_check — validator for the Chrome trace-event files ncc_run --trace
// emits. CI runs it on every uploaded trace artifact; the observability
// tests run the same checks in-process via obs/json_check.
//
//   trace_check [--require-flows] [--require-memory] trace.json [...]
//
// Checks, per file:
//  * the document parses as JSON and has a traceEvents array;
//  * every event carries ph/pid/tid/name/ts (and a non-negative dur for
//    "X" complete events);
//  * per (pid, tid) track, "X" event timestamps are monotonically
//    non-decreasing (spans are recorded in begin order);
//  * counter ("C") events carry a non-negative args.value;
//  * flow events ("s"/"t"/"f") carry an id, every id's begin ("s") is
//    matched by exactly one end ("f") within its pid, steps ("t") fall
//    between them, and per-flow timestamps are non-decreasing;
//  * at least one phase span ("X" on the phases track) exists.
// With --require-flows a file with no flow events fails; with
// --require-memory a file with no live_msg_bytes counter fails (the
// determinism/CI gates assert the new tracks actually exist instead of
// silently passing empty traces).
// Exit 0 when every file passes, 1 when one fails, 2 on a usage error (no
// trace file named).
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_check.hpp"

using ncc::obs::JsonValue;

namespace {

struct CheckOpts {
  bool require_flows = false;
  bool require_memory = false;
};

/// Per-flow (pid, id) bookkeeping for begin/end matching.
struct FlowState {
  uint64_t begins = 0, steps = 0, ends = 0;
  double last_ts = -1.0;
};

bool check_trace(const std::string& path, const CheckOpts& opts) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "trace_check: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << is.rdbuf();

  JsonValue doc;
  std::string error;
  if (!ncc::obs::json_parse(buf.str(), &doc, &error)) {
    std::fprintf(stderr, "trace_check: %s: parse error: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  const JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is_array()) {
    std::fprintf(stderr, "trace_check: %s: missing traceEvents array\n",
                 path.c_str());
    return false;
  }

  uint64_t spans = 0, counters = 0, metadata = 0, flow_events = 0;
  uint64_t memory_counters = 0;
  std::map<std::pair<double, double>, double> last_ts;  // (pid, tid) -> ts
  std::map<std::pair<double, double>, FlowState> flows;  // (pid, id) -> state
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    auto bad = [&](const char* why) {
      std::fprintf(stderr, "trace_check: %s: event %zu: %s\n", path.c_str(), i,
                   why);
      return false;
    };
    if (!e.is_object()) return bad("not an object");
    const JsonValue* ph = e.find("ph");
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    const JsonValue* name = e.find("name");
    if (!ph || !ph->is_string()) return bad("missing ph");
    if (!pid || !pid->is_number()) return bad("missing pid");
    if (!tid || !tid->is_number()) return bad("missing tid");
    if (!name || !name->is_string()) return bad("missing name");
    if (ph->string == "M") {
      ++metadata;
      continue;
    }
    const JsonValue* ts = e.find("ts");
    if (!ts || !ts->is_number() || ts->number < 0) return bad("missing ts");
    if (ph->string == "X") {
      const JsonValue* dur = e.find("dur");
      if (!dur || !dur->is_number() || dur->number < 0)
        return bad("X event without non-negative dur");
      auto key = std::make_pair(pid->number, tid->number);
      auto it = last_ts.find(key);
      if (it != last_ts.end() && ts->number < it->second)
        return bad("non-monotonic ts within track");
      last_ts[key] = ts->number;
      ++spans;
    } else if (ph->string == "C") {
      const JsonValue* args = e.find("args");
      const JsonValue* value = args ? args->find("value") : nullptr;
      if (!value || !value->is_number() || value->number < 0)
        return bad("C event without non-negative args.value");
      ++counters;
      if (name->string == "live_msg_bytes") ++memory_counters;
    } else if (ph->string == "s" || ph->string == "t" || ph->string == "f") {
      const JsonValue* id = e.find("id");
      if (!id || !id->is_number()) return bad("flow event without id");
      FlowState& st = flows[std::make_pair(pid->number, id->number)];
      if (ph->string == "s") {
        if (st.begins > 0) return bad("duplicate flow begin for id");
        ++st.begins;
      } else if (ph->string == "t") {
        if (st.begins == 0) return bad("flow step before its begin");
        if (st.ends > 0) return bad("flow step after its end");
        ++st.steps;
      } else {
        if (st.begins == 0) return bad("flow end before its begin");
        if (st.ends > 0) return bad("duplicate flow end for id");
        ++st.ends;
      }
      if (ts->number < st.last_ts) return bad("non-monotonic ts within flow");
      st.last_ts = ts->number;
      ++flow_events;
    } else {
      return bad("unknown ph");
    }
  }
  if (spans == 0) {
    std::fprintf(stderr, "trace_check: %s: no duration events\n", path.c_str());
    return false;
  }
  for (const auto& [key, st] : flows) {
    if (st.begins != st.ends) {
      std::fprintf(stderr,
                   "trace_check: %s: flow id %.0f (pid %.0f) has %llu begin(s) "
                   "but %llu end(s)\n",
                   path.c_str(), key.second, key.first,
                   static_cast<unsigned long long>(st.begins),
                   static_cast<unsigned long long>(st.ends));
      return false;
    }
  }
  if (opts.require_flows && flows.empty()) {
    std::fprintf(stderr, "trace_check: %s: no flow events (--require-flows)\n",
                 path.c_str());
    return false;
  }
  if (opts.require_memory && memory_counters == 0) {
    std::fprintf(stderr,
                 "trace_check: %s: no live_msg_bytes counter "
                 "(--require-memory)\n",
                 path.c_str());
    return false;
  }
  std::printf(
      "trace_check: %s: ok (%llu spans, %llu counters [%llu memory], "
      "%llu flow events in %zu flows, %llu metadata)\n",
      path.c_str(), static_cast<unsigned long long>(spans),
      static_cast<unsigned long long>(counters),
      static_cast<unsigned long long>(memory_counters),
      static_cast<unsigned long long>(flow_events), flows.size(),
      static_cast<unsigned long long>(metadata));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CheckOpts opts;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--require-flows") {
      opts.require_flows = true;
    } else if (a == "--require-memory") {
      opts.require_memory = true;
    } else {
      paths.push_back(a);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: trace_check [--require-flows] [--require-memory] "
                 "trace.json [...]\n");
    return 2;
  }
  bool ok = true;
  for (const std::string& p : paths) ok &= check_trace(p, opts);
  return ok ? 0 : 1;
}
