// Shared helpers for the perf benches (bench_engine, bench_overlay,
// bench_hotkey): option parsing, the engine-attached pipeline, memory and
// wall-clock columns, and the BENCH_*.json row writer.
//
// Common flags: --quick (shrink sweeps for CI smoke runs), --big (also run
// the million-node rows — slow and memory-hungry, skipped by CI; bench_diff
// skips baseline rows marked "big" that a non---big run did not regenerate),
// --threads T (run the simulation on T engine threads), --json PATH (write
// the run's machine-readable result rows, BENCH_engine.json-style, for the
// perf-trajectory tooling; each run overwrites the file). An unknown flag, a
// value flag at the end of argv or a non-numeric --threads exits 1 with a
// message, as ncc_run does.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/broadcast_trees.hpp"
#include "core/orientation_algo.hpp"
#include "engine/engine.hpp"
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
/// A round engine is attached for the whole pipeline lifetime — also at
/// threads == 1, so the per-shard wall-clock profile (Engine::shard_timing)
/// exists at every point of a thread sweep; results are bit-identical across
/// thread counts either way.
struct Pipeline {
  Network net;
  std::unique_ptr<Engine> engine;
  Shared shared;
  OrientationRunResult orient;
  BroadcastTrees bt;

  // Not movable: the engine holds Network& and the network points back at
  // the engine, so a moved Network would dangle both.
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  Pipeline(const Graph& g, uint64_t seed, uint32_t threads = 1)
      : net(make_net(g.n(), seed)),
        engine(std::make_unique<Engine>(net, EngineConfig{threads})),
        shared(g.n(), seed),
        orient(run_orientation(shared, net, g)),
        bt(build_broadcast_trees(shared, net, g, orient.orientation, seed)) {}

  /// Rounds spent building the pipeline (orientation + trees).
  uint64_t setup_rounds() const { return orient.rounds + bt.rounds; }
};

/// Attach a round engine to `net` when threads > 1 (results are bit-identical
/// either way; see the determinism contract). Keep the returned handle alive
/// for as long as the network runs.
inline std::unique_ptr<Engine> attach_engine(Network& net, uint32_t threads) {
  return threads > 1 ? std::make_unique<Engine>(net, EngineConfig{threads}) : nullptr;
}

struct BenchOpts {
  bool quick = false;
  bool big = false;      // also run the million-node rows (slow, lots of RAM)
  uint32_t threads = 1;  // 0 = hardware threads
  std::string json;      // output path; empty = no JSON emitted
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
    if ((k == "--threads" || k == "--json") && i + 1 >= argc)
      usage_error("missing value for", k);
    if (k == "--quick") {
      o.quick = true;
    } else if (k == "--big") {
      o.big = true;
    } else if (k == "--threads") {
      // At most four digits, so stoul cannot throw; 0 = hardware threads.
      std::string v = argv[++i];
      bool digits = !v.empty() && v.size() <= 4 &&
                    v.find_first_not_of("0123456789") == std::string::npos;
      unsigned long t = digits ? std::stoul(v) : 0;
      if (!digits || t > 1024) usage_error("bad value for --threads:", v);
      o.threads = static_cast<uint32_t>(t);
    } else if (k == "--json") {
      o.json = argv[++i];
    } else {
      usage_error("unknown option", k);
    }
  }
  if (o.threads == 0) o.threads = ThreadPool::hardware_threads();
  return o;
}

/// Peak container bytes of a run: the Network's hot containers plus the
/// engine's per-shard staged buffers (pass eng = nullptr when no engine was
/// attached). This is the `peak_bytes` column of the bench JSON rows —
/// observational (capacities depend on the shard layout), deterministic for a
/// fixed (workload, n, threads), so bench_compare diffs it exactly.
inline uint64_t mem_peak_bytes(const Network& net, const Engine* eng) {
  uint64_t bytes = net.mem_stats().container_bytes_peak;
  if (eng)
    for (const EngineShardMemory& m : eng->shard_memory())
      bytes += m.staged_bytes_peak;
  return bytes;
}

/// Capacity-growth events on the same containers; the `allocs` column.
inline uint64_t mem_allocs(const Network& net, const Engine* eng) {
  uint64_t allocs = net.mem_stats().allocs;
  if (eng)
    for (const EngineShardMemory& m : eng->shard_memory()) allocs += m.allocs;
  return allocs;
}

/// JSON tail for the memory columns, spliced into a BenchJson row.
inline std::string mem_extra(uint64_t peak_bytes, uint64_t allocs) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", \"peak_bytes\": %llu, \"allocs\": %llu",
                static_cast<unsigned long long>(peak_bytes),
                static_cast<unsigned long long>(allocs));
  return buf;
}

/// Wall-clock stopwatch for the speedup rows.
struct WallTimer {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start)
        .count();
  }
};

/// Machine-readable bench output: one JSON object per row with the fields
/// future PRs track across the perf trajectory (wall-clock, rounds, threads,
/// n). save() writes a single JSON array, replacing the file — point each
/// bench at its own path.
class BenchJson {
 public:
  /// `extra` is spliced verbatim before the row's closing brace — callers
  /// append pre-formatted fields like `, "msgs_per_sec": …` or a nested
  /// timing object.
  void add(const std::string& bench, uint64_t n, uint32_t threads, uint64_t rounds,
           double wall_ms, uint64_t messages = 0, const std::string& extra = "") {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"bench\": \"%s\", \"n\": %llu, \"threads\": %u, "
                  "\"rounds\": %llu, \"wall_ms\": %.3f, \"messages\": %llu",
                  bench.c_str(), static_cast<unsigned long long>(n), threads,
                  static_cast<unsigned long long>(rounds), wall_ms,
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
