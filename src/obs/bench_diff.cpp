#include "obs/bench_diff.hpp"

#include <cstdio>
#include <map>

namespace ncc::obs {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

std::string row_key(const JsonValue& row) {
  const JsonValue* bench = row.find("bench");
  const JsonValue* n = row.find("n");
  std::string key = bench && bench->is_string() ? bench->string : "?";
  key += " n=";
  key += n && n->is_number() ? num(n->number) : "?";
  return key;
}

// Rows marked "big": true are the million-node rows benches only produce
// under --big (too slow and memory-hungry for the regeneration runs); a
// baseline big row absent from the fresh run is expected, not a shrunken
// sweep.
bool row_is_big(const JsonValue& row) {
  const JsonValue* b = row.find("big");
  return b && b->kind == JsonValue::Kind::Bool && b->boolean;
}

}  // namespace

BenchDiffResult diff_bench(const JsonValue& baseline, const JsonValue& fresh) {
  BenchDiffResult out;
  auto fail = [&](const std::string& row, const std::string& metric,
                  const std::string& note) {
    out.issues.push_back({BenchDiffIssue::Severity::Fail, row, metric, note});
  };

  if (!baseline.is_array() || !fresh.is_array()) {
    fail("", "", "bench documents must be JSON arrays of row objects");
    return out;
  }

  // std::map keeps report order stable (sorted by key) regardless of row
  // order in either file.
  auto index = [&](const JsonValue& doc, const char* side) {
    std::map<std::string, const JsonValue*> rows;
    for (const JsonValue& row : doc.array) {
      if (!row.is_object()) {
        fail("", "", std::string(side) + " row is not a JSON object");
      } else if (!rows.emplace(row_key(row), &row).second) {
        fail(row_key(row), "", std::string("duplicate row in ") + side);
      }
    }
    return rows;
  };
  const std::map<std::string, const JsonValue*> base_rows = index(baseline, "baseline");
  const std::map<std::string, const JsonValue*> fresh_rows = index(fresh, "fresh");

  for (const auto& [key, brow] : base_rows) {
    auto fit = fresh_rows.find(key);
    if (fit == fresh_rows.end()) {
      if (row_is_big(*brow)) {
        out.issues.push_back({BenchDiffIssue::Severity::Warn, key, "",
                              "baseline row marked big — skipped (fresh run "
                              "did not pass --big)"});
      } else {
        fail(key, "", "baseline row missing from fresh run");
      }
      continue;
    }
    const JsonValue& frow = *fit->second;
    ++out.rows_compared;

    for (const auto& [field, bv] : brow->object) {
      if (!bv.is_number()) continue;
      const JsonValue* fv = frow.find(field);
      if (!fv || !fv->is_number()) {
        fail(key, field, "missing from fresh row (baseline " + num(bv.number) + ")");
      } else if (fv->number != bv.number) {
        fail(key, field, "baseline " + num(bv.number) + " -> fresh " + num(fv->number));
      }
    }
    for (const auto& [field, fv] : frow.object) {
      const JsonValue* bv = brow->find(field);
      if (fv.is_number() && (!bv || !bv->is_number()))
        fail(key, field, "missing from baseline row (fresh " + num(fv.number) + ")");
    }
  }

  for (const auto& [key, frow] : fresh_rows) {
    (void)frow;
    if (!base_rows.count(key)) fail(key, "", "fresh row has no baseline row");
  }

  return out;
}

std::string render_report(const BenchDiffResult& result) {
  std::string rep;
  for (const BenchDiffIssue& i : result.issues) {
    rep += i.severity == BenchDiffIssue::Severity::Fail ? "FAIL [" : "warn [";
    rep += i.row + "] ";
    if (!i.metric.empty()) rep += i.metric + ": ";
    rep += i.note + "\n";
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %zu rows compared, %zu issues (%s)\n",
                result.failed() ? "FAIL" : "PASS", result.rows_compared,
                result.issues.size(),
                result.failed() ? "ledger differs — explain the change and "
                                  "recommit the regenerated file"
                                : "ledger matches");
  rep += buf;
  return rep;
}

}  // namespace ncc::obs
