// Round-engine bench: round, message and memory counters of fixed workloads
// at two input sizes.
//
//   ./bench_engine [--json PATH]
//
// Workloads: gossip (clique-saturating all-to-all — stresses end_round
// delivery), and the Section 5 BFS/MIS pipelines on a gnm graph (stress the
// overlay router's step loop). Sizes n in {512, 4096}. Emits
// BENCH_engine.json rows {bench, n, rounds, messages, peak_bytes, allocs}:
// all counters, reproducible for a fixed (workload, n), so the
// bench_ledger_engine ctest byte-compares them with the committed ledger.
// The memory columns are container capacities and growth counts
// (observational, never part of the determinism contract).
// Wall-clock, including the engine's stage/deliver split, is measured by
// benchmark/ncc_bench (BENCHMARK.json's engine.stage_ms / engine.deliver_ms).
#include "bench_util.hpp"

#include "core/bfs.hpp"
#include "core/gossip.hpp"
#include "core/mis.hpp"

using namespace ncc;
using namespace ncc::bench;

namespace {

struct RunOut {
  uint64_t rounds = 0;
  uint64_t messages = 0;
  // Peak network container bytes and alloc count.
  uint64_t peak_bytes = 0;
  uint64_t allocs = 0;
};

RunOut counters(const Network& net, uint64_t rounds) {
  return {rounds, net.stats().messages_sent, net.mem_stats().container_bytes_peak,
          net.mem_stats().allocs};
}

RunOut run_gossip_bench(NodeId n) {
  Network net = make_net(n, 42);
  auto res = run_gossip(net);
  return counters(net, res.rounds);
}

RunOut run_bfs_bench(const Graph& g) {
  Pipeline p(g, 7);
  auto res = run_bfs(p.shared, p.net, g, p.bt, 0, 3);
  return counters(p.net, res.rounds + p.setup_rounds());
}

RunOut run_mis_bench(const Graph& g) {
  Pipeline p(g, 11);
  auto res = run_mis(p.shared, p.net, g, p.bt, 5);
  return counters(p.net, res.rounds + p.setup_rounds());
}

}  // namespace

int main(int argc, char** argv) {
  BenchOpts o = parse_opts(argc, argv);
  const std::vector<NodeId> sizes{512, 4096};

  BenchJson json;
  Table t({"workload", "n", "rounds", "messages", "peak MB", "allocs"});
  auto add_row = [&](const char* name, NodeId n, const RunOut& r) {
    json.add(name, n, r.rounds, r.messages, mem_extra(r.peak_bytes, r.allocs));
    t.add_row({name, Table::num(uint64_t{n}), Table::num(r.rounds),
               Table::num(r.messages),
               Table::num(static_cast<double>(r.peak_bytes) / (1024.0 * 1024.0), 1),
               Table::num(r.allocs)});
  };

  for (NodeId n : sizes) {
    Rng rng(9);
    Graph g = gnm_graph(n, 8ull * n, rng);
    std::printf("== engine rows at n=%u (gnm m=%llu) ==\n", n,
                static_cast<unsigned long long>(g.m()));
    add_row("engine_gossip", n, run_gossip_bench(n));
    add_row("engine_bfs", n, run_bfs_bench(g));
    add_row("engine_mis", n, run_mis_bench(g));
  }

  t.print();
  std::printf("peak MB = peak network container capacity\n");
  json.save(o.json.empty() ? "BENCH_engine.json" : o.json);
  return 0;
}
