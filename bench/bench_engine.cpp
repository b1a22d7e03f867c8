// Round-engine bench: wall-clock and memory of fixed workloads at two input
// sizes, with the engine's stage/deliver split.
//
//   ./bench_engine [--quick] [--big] [--json PATH]
//
// Workloads: gossip (clique-saturating all-to-all — stresses end_round
// delivery), and the Section 5 BFS/MIS pipelines on a gnm graph (stress the
// overlay router's step loop). Sizes n in {512, 4096}; --quick runs the same
// rows (the flag is accepted like every bench's). Emits BENCH_engine.json
// rows {bench, n, threads, rounds, wall_ms, messages, msgs_per_sec,
// peak_bytes, allocs, timing}; `timing` (wall-clock split) and the memory
// columns (container capacities / allocation counts) are observational only,
// never part of any determinism-compared bytes — but peak_bytes/allocs are
// reproducible for a fixed (workload, n), so bench_compare diffs them
// exactly.
#include "bench_util.hpp"

#include "core/bfs.hpp"
#include "core/gossip.hpp"
#include "core/mis.hpp"

using namespace ncc;
using namespace ncc::bench;

namespace {

struct RunOut {
  double wall_ms = 0;
  uint64_t rounds = 0;
  uint64_t messages = 0;
  // Engine per-stage wall-clock (ms).
  double stage_ms = 0, merge_ms = 0, deliver_ms = 0;
  // Peak network container bytes and alloc count.
  uint64_t peak_bytes = 0;
  uint64_t allocs = 0;
};

void fill_profiles(RunOut* out, const Network& net, const Engine& eng) {
  for (const EngineShardTiming& tm : eng.shard_timing()) {
    out->stage_ms += static_cast<double>(tm.stage_ns) / 1e6;
    out->merge_ms += static_cast<double>(tm.merge_ns) / 1e6;
    out->deliver_ms += static_cast<double>(tm.deliver_ns) / 1e6;
  }
  out->peak_bytes = net.mem_stats().container_bytes_peak;
  out->allocs = net.mem_stats().allocs;
}

/// The JSON tail shared by every row: throughput, the memory columns, and
/// the per-stage wall-clock split.
std::string row_extra(const RunOut& r) {
  char buf[192];
  double secs = std::max(1e-9, r.wall_ms / 1e3);
  std::snprintf(buf, sizeof(buf),
                ", \"msgs_per_sec\": %.0f, \"timing\": {\"stage_ms\": %.3f, "
                "\"merge_ms\": %.3f, \"deliver_ms\": %.3f}",
                static_cast<double>(r.messages) / secs, r.stage_ms, r.merge_ms,
                r.deliver_ms);
  return mem_extra(r.peak_bytes, r.allocs) + buf;
}

RunOut run_gossip_bench(NodeId n, uint64_t max_rounds = UINT64_MAX) {
  Network net = make_net(n, 42);
  Engine eng(net);  // for the stage/deliver profile
  WallTimer t;
  auto res = run_gossip(net, max_rounds);
  RunOut out;
  out.wall_ms = t.ms();
  out.rounds = res.rounds;
  out.messages = net.stats().messages_sent;
  fill_profiles(&out, net, eng);
  return out;
}

RunOut run_bfs_bench(const Graph& g) {
  Pipeline p(g, 7);
  WallTimer t;
  auto res = run_bfs(p.shared, p.net, g, p.bt, 0, 3);
  RunOut out;
  out.wall_ms = t.ms();
  out.rounds = res.rounds + p.setup_rounds();
  out.messages = p.net.stats().messages_sent;
  fill_profiles(&out, p.net, p.engine);
  return out;
}

RunOut run_mis_bench(const Graph& g) {
  Pipeline p(g, 11);
  WallTimer t;
  auto res = run_mis(p.shared, p.net, g, p.bt, 5);
  RunOut out;
  out.wall_ms = t.ms();
  out.rounds = res.rounds + p.setup_rounds();
  out.messages = p.net.stats().messages_sent;
  fill_profiles(&out, p.net, p.engine);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOpts o = parse_opts(argc, argv);
  const std::vector<NodeId> sizes{512, 4096};

  BenchJson json;
  Table t({"workload", "n", "rounds", "wall ms", "msgs/sec", "peak MB", "allocs",
           "stage ms", "deliver ms"});
  auto add_row = [&](const char* name, NodeId n, const RunOut& r,
                     const std::string& extra_tail) {
    json.add(name, n, r.rounds, r.wall_ms, r.messages, row_extra(r) + extra_tail);
    double secs = std::max(1e-9, r.wall_ms / 1e3);
    t.add_row({name, Table::num(uint64_t{n}), Table::num(r.rounds),
               Table::num(static_cast<uint64_t>(r.wall_ms)),
               Table::num(static_cast<uint64_t>(static_cast<double>(r.messages) / secs)),
               Table::num(static_cast<double>(r.peak_bytes) / (1024.0 * 1024.0), 1),
               Table::num(r.allocs), Table::num(r.stage_ms, 1),
               Table::num(r.deliver_ms, 1)});
  };

  for (NodeId n : sizes) {
    Rng rng(9);
    Graph g = gnm_graph(n, 8ull * n, rng);
    std::printf("== engine rows at n=%u (gnm m=%llu) ==\n", n,
                static_cast<unsigned long long>(g.m()));
    add_row("engine_gossip", n, run_gossip_bench(n), "");
    add_row("engine_bfs", n, run_bfs_bench(g), "");
    add_row("engine_mis", n, run_mis_bench(g), "");
  }

  if (o.big) {
    // Million-node slice: full gossip at n = 2^20 would take n*(n-1) ≈ 1.1e12
    // messages (~6.5k capacity-saturating rounds) — infeasible by construction
    // at any throughput, so the row runs a bounded two-round slice (~335M
    // messages) that exercises the same hot path at full memory scale
    // (recorded `complete: false` by run_gossip). Rows carry "big": true so
    // the ledger check (which never passes --big) skips them instead of
    // failing on the missing row (see obs/bench_diff).
    const NodeId bign = 1u << 20;
    const uint64_t big_rounds = 2;
    std::printf("== million-node slice: gossip at n=%u, %llu rounds ==\n", bign,
                static_cast<unsigned long long>(big_rounds));
    add_row("engine_gossip", bign, run_gossip_bench(bign, big_rounds), ", \"big\": true");
  }

  t.print();
  std::printf("peak MB = peak network container capacity\n");
  json.save(o.json.empty() ? "BENCH_engine.json" : o.json);
  return 0;
}
