// Scenario sweeps: one spec × a parameter grid in one ncc_run invocation.
//
// A sweep spec is an ordinary scenario file that may additionally declare
// grid axes with `sweep.<key> = v1,v2,...` lines, e.g.
//
//   sweep.n = 256,1024,4096
//   sweep.drop_rate = 0,0.01,0.05
//
// The cross-product of the axes is expanded in declaration order (last axis
// fastest, an odometer), each cell re-applies its axis values over the base
// key/value pairs and re-runs the full cross-field validation, and cells are
// named `<sweep>/k1=v1,k2=v2`. A file with no sweep.* lines is a one-cell
// sweep, so every plain spec is also a valid sweep spec. Axis values are kept
// as the literal strings of the file: expansion reuses apply_spec_key, and
// to_string/parse round-trips exactly like plain specs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.hpp"

namespace ncc::scenario {

/// Hard cap on the cells one sweep may expand to (CI safety: a typo'd axis
/// must be a parse error, not an hour of compute).
inline constexpr uint64_t kMaxSweepCells = 512;

struct SweepAxis {
  std::string key;                  // a plain spec key (anything but `name`)
  std::vector<std::string> values;  // literal value strings, in file order
};

struct SweepSpec {
  std::string name = "sweep";
  /// Base `key = value` pairs in file order (everything except `name` and
  /// `sweep.*` lines). Kept unvalidated: a swept key (say `n`) may be absent
  /// from the base and only supplied by its axis.
  std::vector<std::pair<std::string, std::string>> base;
  std::vector<SweepAxis> axes;

  /// Cross-product size (1 when there are no axes).
  uint64_t cells() const;

  /// Canonical serialization; parse_sweep(to_string()) round-trips exactly.
  std::string to_string() const;
};

/// Parse a sweep spec from text. Every axis key must be a known spec key and
/// every axis value must parse for that key (checked against a scratch spec);
/// the first fully-expanded cell must validate. On failure returns nullopt
/// and sets `error` to a line-numbered description.
std::optional<SweepSpec> parse_sweep(const std::string& text, std::string* error);

/// Parse a sweep spec from a file (name defaults to the file stem).
std::optional<SweepSpec> parse_sweep_file(const std::string& path, std::string* error);

/// The axis-value assignment of cell `index` (row-major over the axes, last
/// axis fastest), as "k1=v1,k2=v2". Empty for an axis-free sweep.
std::string sweep_cell_label(const SweepSpec& sweep, uint64_t index);

/// The odometer decode behind labels, expansion, and the per-axis summaries:
/// element i is the value index of axis i in cell `index`. Exported so every
/// consumer shares one cell -> axis-value mapping.
std::vector<size_t> sweep_cell_pick(const SweepSpec& sweep, uint64_t index);

/// Expand cell `index` into a validated ScenarioSpec named
/// `<sweep.name>/<label>`. Returns nullopt and sets `error` if the cell's
/// key combination fails validation.
std::optional<ScenarioSpec> expand_sweep_cell(const SweepSpec& sweep, uint64_t index,
                                              std::string* error);

}  // namespace ncc::scenario
