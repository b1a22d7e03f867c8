// det_lint — static checker for the deterministic byte-prefix contract.
//
// The repo's central invariant (docs/DETERMINISM.md) is that the
// deterministic bytes — algorithm outputs, NetStats, scenario JSON, and the
// trace prefix — are a pure function of (spec, seed), so reruns and any
// `ncc_run --threads` value reproduce them exactly. Until now that contract was
// enforced only dynamically — ctest byte-compares catch a violation only if a
// test happens to exercise it. This pass enforces it statically: every
// translation unit under src/ is classified by a checked-in manifest
// (tools/det_lint_manifest.txt) as `deterministic`, `mixed`, or
// `observational`, and deterministic/mixed code is scanned for the known
// sources of nondeterminism:
//
//   wall-clock      std::chrono, clock()/time()/gettimeofday/clock_gettime
//   randomness      std::random_device, rand()/srand(), mt19937 & friends
//                   (all randomness must flow through common/rng)
//   thread-identity std::this_thread, thread_local, pthread_self
//   unordered-container  std::unordered_{map,set,multimap,multiset} — order
//                   is implementation-defined; use FlatMap with an ordered
//                   drain, or annotate why the order cannot leak
//   pointer-key     containers keyed by a pointer type and std::hash over a
//                   pointer — ASLR makes the key (and any derived order or
//                   hash value) differ between runs
//   reinterpret-cast raw struct reinterpretation — padding bytes are
//                   unspecified, a hazard for byte-compared buffers
//
// Known-safe uses are *declared*, not implicit, with a line-scoped
// suppression comment that must carry a reason:
//
//   // det-lint: observational — <why this line is outside the byte prefix>
//   // det-lint: allow(<rule>) — <why this use cannot leak order/bytes>
//
// A standalone suppression comment scopes the next source line; a trailing
// one scopes its own line. A suppression without a reason, with an unknown
// rule, or that suppresses nothing is itself a finding. The scan is purely
// lexical (comment/string/raw-string-aware; no libclang), so banned tokens
// inside comments or string literals never fire.
//
// The report is deterministic: findings sorted by (file, line, rule).
// tools/det_lint is the CLI (exit 0 clean / 1 findings / 2 usage, the
// trace_check convention); the `det_lint` ctest runs it over src/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ncc::lint {

enum class FileClass {
  Deterministic,  // full rule set enforced
  Mixed,          // full rule set enforced; suppressions expected
  Observational,  // rules off; suppression comments still syntax-checked
};

/// One `<class> <path-prefix>` line of the manifest. Longest matching prefix
/// wins, so a directory rule can be refined per file.
struct ManifestEntry {
  std::string prefix;
  FileClass cls;
};

struct Manifest {
  std::vector<ManifestEntry> entries;

  /// Classification for a repo-relative path, or false if no entry matches
  /// (an unclassified file is a finding: new code must be classified).
  bool classify(const std::string& rel_path, FileClass* out) const;
};

/// Parse manifest text (`# comment` / blank / `<class> <prefix>` lines).
bool parse_manifest(const std::string& text, Manifest* out, std::string* error);

struct Finding {
  std::string file;  // repo-relative path
  uint32_t line = 0;
  std::string rule;    // e.g. "unordered-container", "bad-suppression"
  std::string detail;  // the offending token and what to do about it
};

/// Deterministic ordering: (file, line, rule, detail).
bool finding_less(const Finding& a, const Finding& b);

/// Lint one file's contents under the given classification, appending
/// findings. `path_label` is the repo-relative path used in reports.
void lint_file(const std::string& path_label, const std::string& contents,
               FileClass cls, std::vector<Finding>* out);

struct Report {
  std::vector<Finding> findings;
  uint64_t files = 0;
  uint64_t lines = 0;
  uint64_t suppressions = 0;  // valid suppressions that fired
};

/// Walk `roots` (repo-relative directories or files) under `repo_root`,
/// classify every C++ source against the manifest, and lint it. Findings are
/// sorted; the walk order is sorted-path, so the report is deterministic.
bool lint_tree(const std::string& repo_root, const Manifest& manifest,
               const std::vector<std::string>& roots, Report* out,
               std::string* error);

/// Render the report in the fixed file:line order. Empty string when clean.
std::string format_report(const Report& report);

}  // namespace ncc::lint
