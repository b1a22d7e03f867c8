// Perf-regression ledger: structured diff of two BENCH_*.json documents
// (committed baseline vs freshly regenerated), with per-metric severity.
//
// Counted metrics — rounds, messages, peak_bytes, allocs — are deterministic
// for a fixed (bench, n, threads) row, so any drift is a real behavioural
// change and compares exact (mismatch = FAIL). Wall-clock metrics — wall_ms,
// msgs_per_sec — are machine noise, so they only warn, and only beyond a
// relative tolerance. A baseline row missing from the fresh run is a FAIL
// (the sweep silently shrank); a fresh row with no baseline is a WARN (the
// sweep grew — recommit the baseline). Exception: baseline rows marked
// "big": true (the million-node rows produced only under --big) merely WARN
// when absent — CI's regeneration runs never pass --big.
//
// The comparison is a library so tests can feed it synthetic documents (e.g.
// prove an injected message-count regression fails); tools/bench_compare is
// the thin file-reading wrapper CI runs in the perf-gate job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_check.hpp"

namespace ncc::obs {

struct BenchDiffPolicy {
  /// Relative drift beyond which a soft (wall-clock) metric warns.
  double soft_tolerance = 0.20;
};

struct BenchDiffIssue {
  enum class Severity { Warn, Fail };
  Severity severity = Severity::Warn;
  std::string row;     // "engine_gossip n=512 threads=1"
  std::string metric;  // which metric drifted (empty for row-level issues)
  double baseline = 0.0;
  double fresh = 0.0;
  std::string note;
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
/// by bench/n/threads). Never throws; malformed rows surface as FAIL issues.
BenchDiffResult diff_bench(const JsonValue& baseline, const JsonValue& fresh,
                           const BenchDiffPolicy& policy = {});

/// Human-readable report (one line per issue plus a PASS/FAIL verdict),
/// suitable for stdout and for the CI artifact.
std::string render_report(const BenchDiffResult& result);

}  // namespace ncc::obs
