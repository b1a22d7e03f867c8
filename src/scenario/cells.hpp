// Independent scenario runs in parallel: the one place the simulator uses
// more than one thread. A round of the NCC model runs on one thread (see
// engine/engine.hpp); the cores pay across runs instead — sweep cells,
// catalog specs, Table 1 grid points — because runs share nothing: each
// builds its own graph, Network and observers.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace ncc::scenario {

/// Runs run_scenario(specs[i], opts) for every i on up to `threads` plain
/// threads (the caller's included) and returns the outcomes in spec order.
/// Each thread takes the next index from a shared counter and writes that
/// cell's slot, so the outcomes — and anything emitted from them in order —
/// do not depend on `threads` (wall_ms aside).
std::vector<ScenarioOutcome> run_cells(const std::vector<ScenarioSpec>& specs,
                                       const RunOptions& opts, uint32_t threads);

}  // namespace ncc::scenario
