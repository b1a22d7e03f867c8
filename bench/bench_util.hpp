// Shared helpers for the perf benches (bench_engine, bench_overlay,
// bench_hotkey): option parsing, the Section 5 pipeline, the memory columns,
// and the BENCH_*.json row writer. The ledgers hold counters only; timing
// claims are BENCHMARK.json's (benchmark/ncc_bench).
//
// The one flag: --json PATH (write the run's ledger rows; each run overwrites
// the file). An unknown flag or a value flag at the end of argv exits 1 with
// a message, as ncc_run does.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/broadcast_trees.hpp"
#include "core/orientation_algo.hpp"
#include "graph/generators.hpp"
#include "net/network.hpp"
#include "primitives/context.hpp"

namespace ncc::bench {

inline Network make_net(NodeId n, uint64_t seed) {
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return Network(cfg);
}

/// Orientation + broadcast-tree pipeline under bench_engine's BFS and MIS rows.
struct Pipeline {
  Network net;
  Shared shared;
  OrientationRunResult orient;
  BroadcastTrees bt;

  Pipeline(const Graph& g, uint64_t seed)
      : net(make_net(g.n(), seed)),
        shared(g.n(), seed),
        orient(run_orientation(shared, net, g)),
        bt(build_broadcast_trees(shared, net, g, orient.orientation, seed)) {}

  /// Rounds spent building the pipeline (orientation + trees).
  uint64_t setup_rounds() const { return orient.rounds + bt.rounds; }
};

struct BenchOpts {
  std::string json;  // output path; empty = no JSON emitted
};

inline BenchOpts parse_opts(int argc, char** argv) {
  std::string prog = argv[0];
  prog = prog.substr(prog.find_last_of('/') + 1);
  auto usage_error = [&](const char* what, const std::string& arg) {
    std::fprintf(stderr, "%s: %s %s\n", prog.c_str(), what, arg.c_str());
    std::exit(1);
  };
  BenchOpts o;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--json" && i + 1 >= argc) usage_error("missing value for", k);
    if (k == "--json") {
      o.json = argv[++i];
    } else {
      usage_error("unknown option", k);
    }
  }
  return o;
}

/// JSON tail for the memory columns, spliced into a BenchJson row: the
/// network's peak container bytes and capacity-growth events
/// (NetMemStats::container_bytes_peak / allocs). Observational (capacities
/// depend on buffer-reuse history) but deterministic for a fixed workload,
/// so the bench_ledger_* ctests byte-compare them.
inline std::string mem_extra(uint64_t peak_bytes, uint64_t allocs) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", \"peak_bytes\": %llu, \"allocs\": %llu",
                static_cast<unsigned long long>(peak_bytes),
                static_cast<unsigned long long>(allocs));
  return buf;
}

/// Machine-readable bench output: one JSON object per row, keyed by
/// (bench, n), holding only counters. save() writes a single JSON array,
/// replacing the file — point each bench at its own path.
class BenchJson {
 public:
  /// `extra` is spliced verbatim before the row's closing brace — callers
  /// append pre-formatted counter fields like `, "peak_bytes": …`.
  void add(const std::string& bench, uint64_t n, uint64_t rounds, uint64_t messages,
           const std::string& extra) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"bench\": \"%s\", \"n\": %llu, \"rounds\": %llu, "
                  "\"messages\": %llu",
                  bench.c_str(), static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(rounds),
                  static_cast<unsigned long long>(messages));
    rows_.push_back(std::string(buf) + extra + "}");
  }

  bool save(const std::string& path) const {
    if (path.empty()) return false;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i)
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(), i + 1 < rows_.size() ? "," : "");
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("json: %zu rows -> %s\n", rows_.size(), path.c_str());
    return true;
  }

 private:
  std::vector<std::string> rows_;
};

}  // namespace ncc::bench
