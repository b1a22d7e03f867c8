// ncc_run — the scenario driver: executes declarative workload specs from
// scenarios/ (or any paths given) and emits machine-readable results.
//
//   ncc_run [options] spec.scn [spec2.scn ...]
//   ncc_run --dir scenarios                   # run every *.scn in a directory
//   ncc_run --sweep --dir scenarios/sweeps    # grid mode -> BENCH_sweeps.json
//
// Every spec is parsed as a sweep spec (`sweep.key = v1,v2,...` lines declare
// grid axes; a file without them is a one-cell sweep), the cross-product is
// expanded, and every cell runs through the scenario registry/verify path.
//
// The option reference is `ncc_run --help` (print_help below).
//
// Exit status: 0 only when every spec parsed and every cell's verdict
// satisfies its spec's `expect` class (degraded verdicts under declared fault
// injection are expected results; anything else — error:* verdicts, a
// fault-free spec degrading, an expectation mismatch — is a regression and
// exits 1). The per-spec summary table at the end shows the verdict mix.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "scenario/cells.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

using namespace ncc;
using namespace ncc::scenario;

namespace {

/// Strict decimal parse for CLI values; config errors must exit 1 with a
/// message, never terminate on an exception or wrap a negative around.
bool parse_cli_u32(const std::string& v, uint32_t* out) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    unsigned long x = std::stoul(v);
    if (x > UINT32_MAX) return false;
    *out = static_cast<uint32_t>(x);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Aggregate over a set of sweep cells (the whole grid or the cells sharing
/// one axis value): verdict histogram plus min/max/mean rounds and messages.
/// A pure function of the per-cell outcomes — so the derived metrics keep
/// BENCH_sweeps.json byte-identical across --threads values.
struct CellAgg {
  uint64_t cells = 0, ok = 0, degraded = 0, round_limit = 0, errors = 0, failed = 0;
  uint64_t rounds_min = UINT64_MAX, rounds_max = 0, rounds_sum = 0;
  uint64_t msgs_min = UINT64_MAX, msgs_max = 0, msgs_sum = 0;

  void account(const ScenarioOutcome& out) {
    ++cells;
    if (out.verdict == "ok") {
      ++ok;
    } else if (out.verdict.rfind("degraded", 0) == 0) {
      ++degraded;
    } else if (out.verdict == "round_limit") {
      ++round_limit;
    } else {
      ++errors;
    }
    if (out.failed) ++failed;
    rounds_min = std::min(rounds_min, out.rounds);
    rounds_max = std::max(rounds_max, out.rounds);
    rounds_sum += out.rounds;
    msgs_min = std::min(msgs_min, out.messages);
    msgs_max = std::max(msgs_max, out.messages);
    msgs_sum += out.messages;
  }

  void write(obs::JsonWriter& w) const {
    w.kv("cells", cells);
    w.key("verdicts");
    w.begin_object();
    w.kv("ok", ok);
    w.kv("degraded", degraded);
    w.kv("round_limit", round_limit);
    w.kv("error", errors);
    w.end_object();
    w.kv("failed", failed);
    auto stat = [&](const char* key, uint64_t mn, uint64_t mx, uint64_t sum) {
      w.key(key);
      w.begin_object();
      w.kv("min", cells ? mn : 0);
      w.kv("max", mx);
      w.kv("mean", cells ? static_cast<double>(sum) / static_cast<double>(cells) : 0.0);
      w.end_object();
    };
    stat("rounds", rounds_min, rounds_max, rounds_sum);
    stat("messages", msgs_min, msgs_max, msgs_sum);
  }
};

/// Per-spec verdict mix for the summary table and the exit-status gate.
struct SpecSummary {
  std::string name;
  CellAgg agg;
  uint64_t live_msgs_peak = 0;  // max over the spec's cells (deterministic)

  void account(const ScenarioOutcome& out) {
    agg.account(out);
    live_msgs_peak = std::max(live_msgs_peak, out.live_msgs_peak);
  }
};

/// Per-axis derived metrics: group the grid's cells by each axis's value
/// (cell -> value index via the same last-axis-fastest odometer the expansion
/// uses) and emit one CellAgg per value, plus `total` for the whole grid.
void write_axis_summaries(obs::JsonWriter& w, const SweepSpec& sweep,
                          const std::vector<ScenarioOutcome>& outs, const CellAgg& total) {
  w.key("summary");
  w.begin_object();
  total.write(w);
  w.end_object();

  w.key("axis_summary");
  w.begin_array();
  // One odometer decode per cell (sweep_cell_pick — the same mapping labels
  // and expansion use, so summaries can never drift from the cell order).
  std::vector<std::vector<size_t>> picks;
  picks.reserve(outs.size());
  for (uint64_t c = 0; c < outs.size(); ++c) picks.push_back(sweep_cell_pick(sweep, c));
  for (size_t i = 0; i < sweep.axes.size(); ++i) {
    w.begin_object();
    w.kv("key", sweep.axes[i].key);
    w.key("groups");
    w.begin_array();
    for (size_t vi = 0; vi < sweep.axes[i].values.size(); ++vi) {
      CellAgg agg;
      for (uint64_t c = 0; c < outs.size(); ++c)
        if (picks[c][i] == vi) agg.account(outs[c]);
      w.begin_object();
      w.kv("value", sweep.axes[i].values[vi]);
      agg.write(w);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

/// Compact per-cell record for the sweep JSON: verdict, headline counters and
/// the adapter's counters, no per-round series (BENCH_sweeps.json is a grid,
/// not a trace). The observational sections trail: wall_ms, then memory.
void write_cell_json(obs::JsonWriter& w, const std::string& label,
                     const ScenarioOutcome& out, const RunOptions& opts) {
  w.begin_object();
  w.kv("cell", label);
  w.kv("verdict", out.verdict);
  w.kv("ok", out.ok);
  w.kv("expect", out.expect);
  w.kv("failed", out.failed);
  w.kv("rounds", out.rounds);
  w.kv("messages", out.messages);
  w.kv("fault_drops", out.fault_drops);
  w.kv("corrupted", out.corrupted);
  w.kv("crashed", out.crashed);
  w.key("counters");
  w.begin_object();
  for (const auto& [k, v] : out.counters) w.kv(k, v);
  w.end_object();
  if (opts.timing) w.kv("wall_ms", out.wall_ms);
  if (opts.memory) {
    w.key("memory");
    w.begin_object();
    w.kv("container_bytes_peak", out.container_bytes_peak);
    w.kv("net_allocs", out.net_allocs);
    w.end_object();
  }
  w.end_object();
}

void print_help() {
  std::printf(
      "usage: ncc_run [options] spec.scn [spec2.scn ...]\n"
      "\n"
      "Runs declarative scenario specs (every file is parsed as a sweep; a\n"
      "file without sweep.* axes is a one-cell sweep) and emits\n"
      "machine-readable results. Exit 0 only when every cell's verdict\n"
      "satisfies its spec's `expect` class.\n"
      "\n"
      "options:\n"
      "  --dir DIR     run all *.scn files under DIR (sorted; repeatable)\n"
      "  --sweep       group output per sweep file with axis metadata and\n"
      "                derived summaries (default JSON: BENCH_sweeps.json)\n"
      "  --threads T   run up to T cells at once, T in [1, 1024] (default 1);\n"
      "                every cell runs on one thread and output is emitted\n"
      "                in cell order, so it is byte-identical across T\n"
      "  --json PATH   write results as JSON (default BENCH_scenarios.json)\n"
      "  --no-timing   omit wall-clock sections; output becomes a pure\n"
      "                function of (spec, seed), byte-identical across\n"
      "                --threads values\n"
      "  --memory      append the observational \"memory\" section to each\n"
      "                run's JSON or sweep cell (network container\n"
      "                capacities and allocation counts) and a peak\n"
      "                live-bytes column to the per-spec summary.\n"
      "                Capacities depend on buffer-reuse history, so only\n"
      "                the ledger golden compares them; the deterministic\n"
      "                live-message-bytes peak/series are always collected\n"
      "                and feed the trace's memory counter track\n"
      "  --trace PATH  write a Chrome trace-event file (one process per\n"
      "                run): phase spans, congestion + live-message-bytes\n"
      "                counter tracks, sampled token flow events, and —\n"
      "                unless --no-timing — a wall-clock engine track\n"
      "  --list        print the registered algorithms and exit\n"
      "  --help        print this reference and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  RunOptions opts;
  std::string json_path;
  std::string trace_path;
  bool list = false;
  bool sweep_mode = false;
  uint32_t threads = 1;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // A value flag with nothing after it (or an empty --trace=) is a usage
    // error, never an unknown option or a silently skipped output.
    bool wants_value =
        arg == "--dir" || arg == "--threads" || arg == "--json" || arg == "--trace";
    if ((wants_value && i + 1 >= argc) || arg == "--trace=") {
      std::fprintf(stderr, "ncc_run: missing value for %s\n",
                   wants_value ? arg.c_str() : "--trace");
      return 1;
    }
    if (arg == "--dir") {
      std::string dir = argv[++i];
      std::error_code ec;
      for (const auto& e : std::filesystem::directory_iterator(dir, ec))
        if (e.path().extension() == ".scn") paths.push_back(e.path().string());
      if (ec) {
        std::fprintf(stderr, "ncc_run: cannot read directory %s\n", dir.c_str());
        return 1;
      }
    } else if (arg == "--sweep") {
      sweep_mode = true;
    } else if (arg == "--threads") {
      if (!parse_cli_u32(argv[++i], &threads) || threads == 0 || threads > 1024) {
        std::fprintf(stderr, "ncc_run: --threads wants an integer in [1, 1024], got %s\n",
                     argv[i]);
        return 1;
      }
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else if (arg == "--no-timing") {
      opts.timing = false;
    } else if (arg == "--memory") {
      opts.memory = true;
    } else if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg == "--trace") {
      trace_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg == "--list") {
      list = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ncc_run: unknown option %s\n", arg.c_str());
      return 1;
    } else {
      paths.push_back(arg);
    }
  }
  if (json_path.empty())
    json_path = sweep_mode ? "BENCH_sweeps.json" : "BENCH_scenarios.json";
  // Sweep cells are reported as compact records built from outcome fields;
  // skip assembling the full per-run JSON nobody reads in this mode.
  opts.build_json = !sweep_mode;
  opts.collect_trace = !trace_path.empty();
  if (opts.collect_trace && trace_path[0] == '-') {
    std::fprintf(stderr, "ncc_run: --trace wants a file path, got %s\n",
                 trace_path.c_str());
    return 1;
  }

  if (list) {
    std::printf("registered algorithms:\n");
    for (const std::string& name : algorithm_names())
      std::printf("  %s\n", name.c_str());
    return 0;
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: ncc_run [options] spec.scn [spec2.scn ...] "
                 "(ncc_run --help lists the options)\n");
    return 1;
  }
  std::sort(paths.begin(), paths.end());

  Table t({"scenario", "algorithm", "graph", "n", "verdict", "rounds", "messages",
           "fault drops", "crashed", "wall ms"});
  std::vector<std::string> rows;         // flat mode: full per-cell JSON objects
  std::vector<std::string> sweep_rows;   // sweep mode: one grouped object per file
  std::vector<obs::TraceCell> trace_cells;  // --trace: one process per run
  std::vector<SpecSummary> summaries;
  int parse_failures = 0;
  uint64_t total_failed = 0;

  // Expand every file's cells first, then run all of them at once on the
  // cell runner; the emission below walks the cells in file and cell order.
  struct CellSlot {
    std::optional<size_t> spec;  // index into specs, or unexpandable:
    std::string error;           // why
  };
  std::vector<SweepSpec> sweeps;
  std::vector<std::vector<CellSlot>> slots;  // per sweep, per cell
  std::vector<ScenarioSpec> specs;
  for (const std::string& path : paths) {
    std::string error;
    auto sweep = parse_sweep_file(path, &error);
    if (!sweep) {
      std::fprintf(stderr, "ncc_run: %s\n", error.c_str());
      ++parse_failures;
      continue;
    }
    slots.emplace_back(sweep->cells());
    for (uint64_t c = 0; c < sweep->cells(); ++c) {
      CellSlot& slot = slots.back()[c];
      if (auto spec = expand_sweep_cell(*sweep, c, &slot.error)) {
        slot.spec = specs.size();
        specs.push_back(std::move(*spec));
      }
    }
    sweeps.push_back(std::move(*sweep));
  }
  std::vector<ScenarioOutcome> outcomes = run_cells(specs, opts, threads);

  for (size_t si = 0; si < sweeps.size(); ++si) {
    const SweepSpec* sweep = &sweeps[si];
    SpecSummary summary;
    summary.name = sweep->name;

    obs::JsonWriter sw;
    if (sweep_mode) {
      sw.begin_object();
      sw.kv("sweep", sweep->name);
      sw.key("axes");
      sw.begin_array();
      for (const SweepAxis& a : sweep->axes) {
        sw.begin_object();
        sw.kv("key", a.key);
        sw.key("values");
        sw.begin_array();
        for (const std::string& v : a.values) sw.value(v);
        sw.end_array();
        sw.end_object();
      }
      sw.end_array();
      sw.key("cells");
      sw.begin_array();
    }

    const uint64_t cells = sweep->cells();
    std::vector<ScenarioOutcome> cell_outs;  // sweep mode: drives axis summaries
    if (sweep_mode) cell_outs.reserve(cells);
    for (uint64_t c = 0; c < cells; ++c) {
      std::string label = sweep_cell_label(*sweep, c);
      const CellSlot& slot = slots[si][c];
      const ScenarioSpec* spec = slot.spec ? &specs[*slot.spec] : nullptr;
      ScenarioOutcome out;
      if (spec) {
        out = std::move(outcomes[*slot.spec]);
        if (opts.collect_trace && out.ran)
          trace_cells.push_back(std::move(out.trace));
      } else {
        // An unexpandable cell is a result too: a failed one, so a bad grid
        // combination gates CI instead of vanishing from the report. There is
        // no validated spec to describe, but the verdict/gate fields every
        // consumer keys on are all present (expect is unresolved: empty).
        out.verdict = "error:" + slot.error;
        out.failed = true;
        if (!sweep_mode) {
          obs::JsonWriter w;
          w.begin_object();
          w.kv("scenario", sweep->name + (label.empty() ? "" : "/" + label));
          w.kv("verdict", out.verdict);
          w.kv("ok", false);
          w.kv("expect", out.expect);
          w.kv("failed", true);
          w.end_object();
          out.json = w.str();
        }
      }
      summary.account(out);
      if (out.failed) ++total_failed;
      if (sweep_mode) {
        write_cell_json(sw, label.empty() ? sweep->name : label, out, opts);
      } else {
        rows.push_back(out.json);
      }
      t.add_row({spec ? spec->name : sweep->name + "/" + label,
                 spec ? spec->algorithm : "?",
                 spec ? family_name(spec->family) : "?",
                 spec ? Table::num(uint64_t{spec->n}) : "?", out.verdict,
                 Table::num(out.rounds), Table::num(out.messages),
                 Table::num(out.fault_drops), Table::num(uint64_t{out.crashed}),
                 Table::num(out.wall_ms, 1)});
      if (sweep_mode) {
        out.json.clear();  // not needed for summaries; drop before storing
        cell_outs.push_back(std::move(out));
      }
    }

    if (sweep_mode) {
      sw.end_array();
      write_axis_summaries(sw, *sweep, cell_outs, summary.agg);
      sw.kv("cells_total", summary.agg.cells);
      sw.kv("failed", summary.agg.failed);
      sw.end_object();
      sweep_rows.push_back(sw.str());
    }
    summaries.push_back(std::move(summary));
  }
  t.print("== scenario results ==");

  // The per-spec regression summary CI reads: every spec's verdict mix and
  // how many cells failed their expectation. With --memory the deterministic
  // peak live-bytes (max over the spec's cells) rides along.
  std::vector<std::string> sum_headers = {"spec",        "cells", "ok",
                                          "degraded",    "round limit",
                                          "error",       "FAILED"};
  if (opts.memory) sum_headers.push_back("peak live KiB");
  Table s(sum_headers);
  for (const SpecSummary& sm : summaries) {
    const CellAgg& a = sm.agg;
    std::vector<std::string> row = {sm.name,
                                    Table::num(a.cells),
                                    Table::num(a.ok),
                                    Table::num(a.degraded),
                                    Table::num(a.round_limit),
                                    Table::num(a.errors),
                                    Table::num(a.failed)};
    if (opts.memory)
      row.push_back(
          Table::num(static_cast<double>(sm.live_msgs_peak * sizeof(Message)) / 1024.0, 1));
    s.add_row(std::move(row));
  }
  s.print("== per-spec summary ==");

  const std::vector<std::string>& out_rows = sweep_mode ? sweep_rows : rows;
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "ncc_run: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < out_rows.size(); ++i)
    std::fprintf(f, "  %s%s\n", out_rows[i].c_str(), i + 1 < out_rows.size() ? "," : "");
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("json: %zu %s -> %s\n", out_rows.size(),
              sweep_mode ? "sweeps" : "scenarios", json_path.c_str());

  if (opts.collect_trace) {
    // The wall-clock engine track follows the timing flag: with --no-timing
    // the trace bytes are a pure function of (spec, seed), which is what the
    // trace determinism check compares across --threads values.
    obs::JsonWriter tw;
    obs::write_chrome_trace(tw, trace_cells, opts.timing);
    std::FILE* tf = std::fopen(trace_path.c_str(), "w");
    if (!tf) {
      std::fprintf(stderr, "ncc_run: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fwrite(tw.str().data(), 1, tw.str().size(), tf);
    std::fputc('\n', tf);
    std::fclose(tf);
    std::printf("trace: %zu runs -> %s\n", trace_cells.size(), trace_path.c_str());
  }

  if (parse_failures > 0) {
    std::fprintf(stderr, "ncc_run: %d spec(s) failed to parse\n", parse_failures);
    return 1;
  }
  if (total_failed > 0) {
    std::fprintf(stderr,
                 "ncc_run: %llu cell(s) failed their expected verdict class\n",
                 static_cast<unsigned long long>(total_failed));
    return 1;
  }
  return 0;
}
