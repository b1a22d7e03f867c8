// Perf-regression ledger: structured diff of two BENCH_*.json documents
// (committed baseline vs freshly regenerated).
//
// A ledger holds only counters (rounds, messages, peak_bytes, allocs, and
// whatever else a bench records, e.g. bench_hotkey's routed/hits/evictions),
// all deterministic for a fixed workload. So there is one rule: rows keyed by
// (bench, n) must match one to one, with the same numeric fields and the same
// values. Any difference — a drifted value, a field missing on either side, a
// row missing on either side, a duplicated key — is a FAIL. The one exception:
// a baseline row marked "big": true (the million-node rows produced only
// under --big) merely WARNs when absent, since regeneration runs never pass
// --big. Timing claims live in BENCHMARK.json (benchmark/ncc_bench), not here.
//
// The comparison is a library so tests can feed it synthetic documents;
// tools/bench_compare is the thin file-reading wrapper the bench_ledger_*
// ctests run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json_check.hpp"

namespace ncc::obs {

struct BenchDiffIssue {
  enum class Severity { Warn, Fail };
  Severity severity = Severity::Fail;
  std::string row;     // "engine_gossip n=512"
  std::string metric;  // the field that differs (empty for row-level issues)
  std::string note;    // what differs, with the values
};

struct BenchDiffResult {
  std::vector<BenchDiffIssue> issues;
  size_t rows_compared = 0;
  bool failed() const {
    for (const BenchDiffIssue& i : issues)
      if (i.severity == BenchDiffIssue::Severity::Fail) return true;
    return false;
  }
};

/// Diff two parsed bench documents (each a JSON array of row objects keyed
/// by bench/n). Never throws; malformed documents surface as FAIL issues.
BenchDiffResult diff_bench(const JsonValue& baseline, const JsonValue& fresh);

/// Human-readable report: one line per issue plus a PASS/FAIL verdict.
std::string render_report(const BenchDiffResult& result);

}  // namespace ncc::obs
