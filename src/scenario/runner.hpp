// One-scenario executor: materializes the spec's graph, wires up the network
// (fault injection, observers), dispatches to the algorithm registry, and
// renders the machine-readable result object. scenario/cells.hpp runs many
// of these in parallel.
//
// The emitted JSON is a pure function of (spec, seed) when `timing` and
// `memory` are off: the determinism checks compare its bytes across
// `ncc_run --threads` values. With `timing` on, a trailing "timing" section
// adds wall-clock; with `memory` on, a trailing "memory" section adds
// container capacities and allocation counts. Neither is part of the
// threads-1-vs-T contract: wall time is non-reproducible, and capacities
// depend on buffer-reuse history. The capacities are still a fixed function
// of the code for a fixed workload, so the ledger goldens
// (tests/golden/ledger_*.json) pin them for their cells. The deterministic
// halves of observability — spans, congestion, sampled flows, per-round live
// bytes — stay in the compared bytes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "obs/trace_export.hpp"
#include "scenario/spec.hpp"

namespace ncc::scenario {

struct RunOptions {
  /// Emit the non-deterministic "timing" section (wall_ms).
  bool timing = true;
  /// Emit the observational "memory" section (container capacities and
  /// allocation counts; see obs::RoundLedger). Off by default; like timing
  /// it stays out of the catalog and sweep goldens.
  bool memory = false;
  /// Assemble the full per-run JSON document. The sweep driver turns this
  /// off — it builds compact per-cell records from the outcome fields and
  /// would otherwise pay for a per-round series it never reads.
  bool build_json = true;
  /// Fill ScenarioOutcome::trace with the run's span stream, congestion
  /// counter series, and engine timing (for the Chrome trace export).
  /// Observability is always on when build_json is set — this flag extends
  /// it to compact (sweep-cell) runs.
  bool collect_trace = false;
};

struct ScenarioOutcome {
  bool ran = false;      // false = spec/graph/algorithm-level error
  bool ok = false;       // correctness verdict
  /// The regression-gate bit: true when the verdict does not satisfy the
  /// spec's `expect` class (error:* verdicts always fail). This is what makes
  /// ncc_run exit non-zero — a degraded verdict under declared fault
  /// injection is an expected result, the same verdict on a fault-free spec
  /// is a regression. A run that broke the node capacity
  /// (within_node_capacity) fails whatever its verdict.
  bool failed = false;
  std::string verdict;   // ok | degraded:<why> | round_limit | error:<why>
  std::string expect;    // resolved expectation class the verdict was held to
  uint64_t rounds = 0;   // simulated rounds
  uint64_t messages = 0;
  uint64_t fault_drops = 0;
  uint64_t corrupted = 0;  // payloads mutated by byzantine fault injection
  uint32_t crashed = 0;
  double wall_ms = 0.0;
  /// Deterministic: max messages in flight in any one round
  /// (NetMemStats::live_msgs_peak).
  uint64_t live_msgs_peak = 0;
  /// The adapter's deterministic counters (ScenarioRunResult::counters);
  /// empty when the run ended before the adapter returned.
  std::vector<std::pair<std::string, uint64_t>> counters;
  /// Observational: the network's peak container capacity and growth events
  /// (NetMemStats::container_bytes_peak / allocs), emitted only under
  /// RunOptions::memory.
  uint64_t container_bytes_peak = 0;
  uint64_t net_allocs = 0;
  std::string json;  // one JSON object describing the run
  /// Trace-export payload; populated only when RunOptions::collect_trace.
  obs::TraceCell trace;
};

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunOptions& opts = {});

/// The NCC model's capacity over a whole run: no node sent more than `cap`
/// messages in a round (a fault-free network aborts on that already, a
/// faulted one only counts it), and none was addressed more than `cap`
/// unless the overflow was dropped and counted.
bool within_node_capacity(const NetStats& st, uint32_t cap);

}  // namespace ncc::scenario
