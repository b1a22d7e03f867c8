// Scenario specs: the declarative workload format of the scenario subsystem.
//
// A scenario file is a plain-text list of `key = value` lines (full-line and
// trailing `#` comments allowed) describing everything one run of the system
// needs: the input graph family and its parameters (backed by
// graph/generators), the algorithm to run (looked up in scenario/registry),
// the seed, the network capacity factor, a round limit, and an optional fault model (scenario/faults). Parsing is strict —
// unknown keys, malformed values, and missing/contradictory parameters are
// rejected with line-numbered errors — and round-trips: parse(to_string(s))
// reproduces s exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "overlay/overlay.hpp"

namespace ncc::scenario {

/// Graph families a spec can name (all backed by graph/generators).
enum class GraphFamily {
  kPath,
  kCycle,
  kStar,
  kClique,
  kGrid,
  kHypercube,
  kTree,
  kForestUnion,
  kGnm,
  kGnp,
  kPowerLaw,
  kBarabasiAlbert,
};

const char* family_name(GraphFamily f);
std::optional<GraphFamily> family_from_name(const std::string& name);

/// Edge-weight assignment applied after generation.
enum class WeightMode { kUnit, kRandom, kDistinct };

/// A half-open round interval [lo, hi) during which a fault is active.
struct RoundWindow {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// The fault model of one scenario; all knobs default to "no fault". Faults
/// are injected at the network layer by scenario::FaultInjector and are
/// deterministic in (spec, seed).
struct FaultModel {
  /// Crash-stop: at each listed round, `crash_count` random alive nodes
  /// (never node 0, which several protocols use as coordinator) permanently
  /// stop communicating — the network loses everything they send or are sent.
  std::vector<uint64_t> crash_rounds;
  uint32_t crash_count = 1;
  /// Uniform per-message loss probability, applied every round.
  double drop_rate = 0.0;
  /// Capacity perturbation: for the first `perturb_for` rounds of every
  /// `perturb_every`-round window, the receive capacity is divided by
  /// `perturb_factor` (floored at 1). 0 = off.
  uint64_t perturb_every = 0;
  uint64_t perturb_for = 1;
  uint32_t perturb_factor = 2;
  /// Partition/heal schedule: a seeded bipartition of the node set (each node
  /// lands on side A with probability `partition_frac`) is active during the
  /// listed round windows; messages crossing the cut are dropped while a
  /// window is open, and the network heals when it closes.
  std::vector<RoundWindow> partition_windows;
  double partition_frac = 0.5;
  /// Byzantine payload corruption: each message independently has its payload
  /// corrupted with this probability. Corruption keeps the message well-formed
  /// (a byzantine participant lies inside the protocol alphabet, it does not
  /// break the transport): a payload word below n is remapped to a different
  /// value in [0, n), anything larger gets one random bit flipped.
  double byzantine_rate = 0.0;

  bool any() const {
    return !crash_rounds.empty() || drop_rate > 0.0 || perturb_every > 0 ||
           !partition_windows.empty() || byzantine_rate > 0.0;
  }
};

struct ScenarioSpec {
  std::string name = "scenario";

  // --- graph ---
  GraphFamily family = GraphFamily::kClique;
  NodeId n = 0;           // required (grid: derived rows*cols if omitted)
  uint64_t m = 0;         // gnm
  double p = 0.0;         // gnp
  uint32_t a = 1;         // forest_union: number of forests
  uint32_t k = 2;         // barabasi_albert attachment, tree fanout unused
  double beta = 2.5;      // powerlaw exponent (> 1)
  uint32_t max_deg = 64;  // powerlaw degree cap
  NodeId rows = 0, cols = 0;  // grid
  uint32_t dim = 0;           // hypercube
  bool connect = false;       // connectify after generation
  WeightMode weights = WeightMode::kUnit;
  Weight w_max = 1 << 12;  // weights = random

  // --- traffic (the request workload the primitives adapters generate) ---
  /// uniform = today's round-robin group assignment; zipf = seeded Zipf-style
  /// hot-key skew over `hot_keys` groups with exponent `zipf_s`.
  enum class Traffic { kUniform, kZipf };
  Traffic traffic = Traffic::kUniform;
  double zipf_s = 1.0;     // skew exponent; requires traffic = zipf
  uint32_t hot_keys = 8;   // size of the hot-key universe; requires traffic = zipf
  /// Number of request waves the aggregate/multicast/multi_aggregation
  /// adapters replay (each wave redraws its requests from the traffic
  /// stream). 1 = today's single-shot behavior.
  uint32_t request_waves = 1;

  // --- en-route combining cache (overlay router) ---
  enum class Cache { kOff, kLru };
  Cache cache = Cache::kOff;
  uint32_t cache_size = 16;  // LRU capacity per routing state; requires cache = lru

  // --- execution ---
  std::string algorithm;  // required; resolved by scenario/registry
  /// Emulated overlay the primitives route over (src/overlay/): the paper's
  /// butterfly by default, `hypercube` or `augmented_cube` to trade routing
  /// levels against per-round degree. Sweepable like any other key.
  OverlayKind overlay = OverlayKind::kButterfly;
  uint64_t seed = 1;
  uint32_t capacity_factor = 8;
  /// Accepted in [1, 1024] and otherwise unused: a run executes on one
  /// thread (`ncc_run --threads` runs cells in parallel instead).
  uint32_t threads = 1;
  uint64_t round_limit = 0;  // 0 = unlimited; runs past it abort with verdict
                             // "round_limit" (mandatory when faults are on:
                             // token-based terminations can jam under loss)
  /// Expected verdict class, the regression gate ncc_run enforces:
  /// ok | degraded | round_limit | any. Empty = auto, resolved by validation
  /// to "ok" for fault-free specs and "any" when faults are on ("any" accepts
  /// every honest verdict but still fails on error:* outcomes).
  std::string expect;

  FaultModel faults;

  /// Which keys were explicitly provided (parse-time metadata; drives the
  /// cross-field validation, ignored by to_string / comparisons).
  struct ProvidedKeys {
    bool graph = false, n = false, algorithm = false, partition_frac = false;
    bool zipf_s = false, hot_keys = false, cache_size = false;
  };
  ProvidedKeys provided;

  /// Canonical serialization; parse(to_string()) round-trips exactly.
  std::string to_string() const;
};

/// The .scn whitespace trim, shared with the sweep parser (sweep-axis value
/// lists must tokenize exactly like every other value).
std::string spec_trim(const std::string& s);

/// Lex one line of the .scn format (the shared tokenizer of parse_spec and
/// parse_sweep, so flat and sweep parsing can never drift): strips a `#`
/// comment and surrounding whitespace, then splits at `=`. Returns false on
/// a malformed line (sets `error`); returns true with *key/*val left empty
/// for blank or comment-only lines, filled otherwise.
bool lex_spec_line(const std::string& raw, std::string* key, std::string* val,
                   std::string* error);

/// Apply one `key = value` assignment to a spec (the shared primitive behind
/// parse_spec and sweep-axis substitution). Returns false and sets `error`
/// for unknown keys or malformed values; no cross-field validation here.
bool apply_spec_key(ScenarioSpec& spec, const std::string& key,
                    const std::string& value, std::string* error);

/// Cross-field validation (grid/hypercube n derivation, per-family required
/// keys, fault-model consistency, expect resolution). Mutates `spec` (derives
/// n, resolves auto expect). Returns false and sets `error` on the first
/// violation.
bool validate_spec(ScenarioSpec& spec, std::string* error);

/// Parse a spec from text. On failure returns nullopt and sets `error` to a
/// line-numbered description of the first problem.
std::optional<ScenarioSpec> parse_spec(const std::string& text, std::string* error);

/// Parse a spec from a file (the scenario name defaults to the file stem when
/// the spec has no explicit `name`).
std::optional<ScenarioSpec> parse_spec_file(const std::string& path, std::string* error);

/// Materialize the spec's input graph (generators + weights + connectify).
/// Returns nullopt and sets `error` if the parameters are unusable.
std::optional<Graph> build_graph(const ScenarioSpec& spec, std::string* error);

}  // namespace ncc::scenario
