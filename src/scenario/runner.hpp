// One-scenario executor: materializes the spec's graph, wires up the network
// (fault injection, observers), dispatches to the algorithm registry, and
// renders the machine-readable result object. scenario/cells.hpp runs many
// of these in parallel.
//
// The emitted JSON is a pure function of (spec, seed) when `timing` and
// `memory` are off: the determinism checks compare its bytes across
// `ncc_run --threads` values. With `timing` on, a trailing "timing" section
// adds wall-clock; with `memory` on, a trailing "memory" section adds
// container capacities and allocation counts. Both are excluded from the
// determinism contract (wall time is non-reproducible, capacities depend on
// buffer-reuse history); the deterministic halves of observability — spans,
// congestion, sampled flows, per-round live bytes — stay in the compared
// bytes.
#pragma once

#include <cstdint>
#include <string>

#include "obs/trace_export.hpp"
#include "scenario/spec.hpp"

namespace ncc::scenario {

struct RunOptions {
  /// Emit the non-deterministic "timing" section (wall_ms).
  bool timing = true;
  /// Emit the non-deterministic "memory" section (container capacities and
  /// allocation counts; see obs::RoundLedger). Off by default — like
  /// timing it must never reach determinism-compared bytes.
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
  /// is a regression.
  bool failed = false;
  std::string verdict;   // ok | degraded:<why> | round_limit | error:<why>
  std::string expect;    // resolved expectation class the verdict was held to
  uint64_t rounds = 0;   // simulated rounds
  uint64_t messages = 0;
  uint64_t fault_drops = 0;
  uint64_t corrupted = 0;  // payloads mutated by byzantine fault injection
  uint32_t crashed = 0;
  double wall_ms = 0.0;
  /// Deterministic: max bytes of messages in flight in any one round (0 when
  /// observability was off for this run).
  uint64_t peak_live_bytes = 0;
  std::string json;  // one JSON object describing the run
  /// Trace-export payload; populated only when RunOptions::collect_trace.
  obs::TraceCell trace;
};

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunOptions& opts = {});

}  // namespace ncc::scenario
