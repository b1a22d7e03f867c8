// Experiments P-AB / P-AGG / P-MC (Theorems 2.2-2.6): round costs of the
// communication primitives.
//
//  * Aggregate-and-Broadcast: O(log n) — n sweep.
//  * sync_barrier: the same fixed schedule through the count fast path —
//    identical rounds, lighter per-call work than the general primitive.
//  * Aggregation: O(L/n + (l1+l2)/log n + log n) — L sweep at fixed n.
//  * Multicast Tree Setup: same cost; tree congestion O(L/n + log n).
//  * Multicast / Multi-Aggregation: O(C + l/log n + log n).
#include "bench_util.hpp"
#include "overlay/overlay.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/aggregation.hpp"
#include "primitives/multi_aggregation.hpp"
#include "primitives/multicast.hpp"

using namespace ncc;
using namespace ncc::bench;

static void bench_ab(const BenchOpts& opts) {
  bool quick = opts.quick;
  std::printf("-- P-AB: Aggregate-and-Broadcast rounds vs O(log n) (Thm 2.2) --\n");
  Table t({"n", "rounds", "log n", "ratio"});
  std::vector<double> measured, predicted;
  std::vector<NodeId> sizes = quick ? std::vector<NodeId>{64, 512}
                                    : std::vector<NodeId>{16, 64, 256, 1024, 4096};
  for (NodeId n : sizes) {
    Network net = make_net(n, n);
    auto eng = attach_engine(net, opts.threads);
    Overlay topo(OverlayKind::kButterfly, n);
    std::vector<std::optional<Val>> inputs(n, Val{1, 0});
    auto res = aggregate_and_broadcast(topo, net, inputs, agg::sum);
    NCC_ASSERT(res.value && (*res.value)[0] == n);
    t.add_row({Table::num(uint64_t{n}), Table::num(res.rounds), Table::num(lg(n), 0),
               Table::num(res.rounds / lg(n), 2)});
    measured.push_back(static_cast<double>(res.rounds));
    predicted.push_back(lg(n));
  }
  t.print();
  print_fit("A&B vs log n", measured, predicted);
  std::printf("\n");
}

static void bench_aggregation(const BenchOpts& opts) {
  bool quick = opts.quick;
  std::printf("-- P-AGG: Aggregation rounds vs O(L/n + l/log n + log n) (Thm 2.3) --\n");
  const NodeId n = quick ? 128 : 512;
  Table t({"L", "groups", "rounds", "congestion", "pred L/n+l1/logn+logn", "ratio"});
  std::vector<double> measured, predicted;
  for (uint32_t mult : quick ? std::vector<uint32_t>{1, 4} :
                               std::vector<uint32_t>{1, 2, 4, 8, 16, 32}) {
    uint64_t L = static_cast<uint64_t>(mult) * n;
    Network net = make_net(n, 5 + mult);
    auto eng = attach_engine(net, opts.threads);
    Shared shared(n, 5 + mult);
    Rng rng(99 + mult);
    AggregationProblem prob;
    prob.combine = agg::sum;
    prob.target = [n](uint64_t g) { return static_cast<NodeId>(g % n); };
    prob.ell2_hat = 4 * mult;
    uint64_t groups = std::max<uint64_t>(1, n / 4);
    // Every node holds `mult` items addressed to random groups: l1 = mult.
    for (NodeId u = 0; u < n; ++u)
      for (uint32_t j = 0; j < mult; ++j)
        prob.items.push_back({u, rng.next_below(groups), Val{1, 0}});
    auto res = run_aggregation(shared, net, prob, mult);
    uint64_t sum = 0;
    res.at_target.for_each([&](uint64_t, const Val& v) { sum += v[0]; });
    NCC_ASSERT(sum == L);  // no value lost
    double pred = static_cast<double>(L) / n + (mult + prob.ell2_hat) / lg(n) + lg(n);
    t.add_row({Table::num(L), Table::num(groups), Table::num(res.rounds),
               Table::num(uint64_t{res.route.congestion}), Table::num(pred, 1),
               Table::num(res.rounds / pred, 2)});
    measured.push_back(static_cast<double>(res.rounds));
    predicted.push_back(pred);
  }
  t.print();
  print_fit("Aggregation vs L/n+l/logn+logn", measured, predicted);
  std::printf("\n");
}

static void bench_multicast(const BenchOpts& opts) {
  bool quick = opts.quick;
  std::printf("-- P-MC: Multicast tree setup / multicast / multi-aggregation "
              "(Thms 2.4-2.6) --\n");
  const NodeId n = quick ? 128 : 512;
  Table t({"|A_i| (each)", "L", "setup rounds", "congestion", "pred C=L/n+logn",
           "mcast rounds", "multi-agg rounds"});
  for (uint32_t gsz : quick ? std::vector<uint32_t>{4, 16} :
                              std::vector<uint32_t>{2, 4, 8, 16, 32, 64}) {
    Network net = make_net(n, 11 + gsz);
    auto eng = attach_engine(net, opts.threads);
    Shared shared(n, 11 + gsz);
    Rng rng(7 + gsz);
    // n/8 groups of size gsz with random members; sources 0..n/8-1.
    uint64_t num_groups = n / 8;
    std::vector<MulticastMembership> members;
    std::vector<MulticastSend> sends;
    for (uint64_t gi = 0; gi < num_groups; ++gi) {
      uint64_t group = 100000 + gi;
      for (uint64_t m : rng.sample_without_replacement(n, gsz))
        members.push_back({static_cast<NodeId>(m), group});
      sends.push_back({group, static_cast<NodeId>(gi), Val{gi, 0}});
    }
    auto setup = setup_multicast_trees(shared, net, members, gsz);
    auto mc = run_multicast(shared, net, setup.trees, sends, gsz, gsz);
    auto ma = run_multi_aggregation(shared, net, setup.trees, sends, agg::min_by_first,
                                    gsz);
    uint64_t L = num_groups * gsz;
    double predC = static_cast<double>(L) / n + lg(n);
    t.add_row({Table::num(uint64_t{gsz}), Table::num(L), Table::num(setup.rounds),
               Table::num(uint64_t{setup.trees.congestion}), Table::num(predC, 1),
               Table::num(mc.rounds), Table::num(ma.rounds)});
  }
  t.print();
  std::printf("Expected shape: congestion tracks L/n + log n; multicast and\n"
              "multi-aggregation rounds track the congestion column.\n\n");
}

static void bench_barrier(const BenchOpts& opts) {
  bool quick = opts.quick;
  std::printf("-- P-BAR: sync_barrier fast path vs all-ones A&B (same rounds, "
              "no per-node value plumbing) --\n");
  const uint32_t reps = 64;
  Table t({"n", "overlay", "rounds/barrier", "barrier ms", "general A&B ms",
           "speedup"});
  std::vector<NodeId> sizes = quick ? std::vector<NodeId>{256}
                                    : std::vector<NodeId>{256, 1024, 4096};
  for (NodeId n : sizes) {
    for (OverlayKind kind : {OverlayKind::kButterfly, OverlayKind::kAugmentedCube}) {
      auto topo = make_overlay(kind, n);
      Network fast = make_net(n, n);
      auto e1 = attach_engine(fast, opts.threads);
      WallTimer t_fast;
      uint64_t rounds = 0;
      for (uint32_t r = 0; r < reps; ++r) rounds = sync_barrier(*topo, fast);
      double fast_ms = t_fast.ms();
      Network gen = make_net(n, n);
      auto e2 = attach_engine(gen, opts.threads);
      WallTimer t_gen;
      for (uint32_t r = 0; r < reps; ++r) {
        // What sync_barrier used to do: build the n-sized all-ones input and
        // run the general primitive, per call.
        std::vector<std::optional<Val>> ones(n, Val{1, 0});
        aggregate_and_broadcast(*topo, gen, ones, agg::sum);
      }
      double gen_ms = t_gen.ms();
      // The fast path must not change the schedule, only the local work.
      NCC_ASSERT(fast.stats().rounds == gen.stats().rounds);
      NCC_ASSERT(fast.stats().messages_sent == gen.stats().messages_sent);
      t.add_row({Table::num(uint64_t{n}), overlay_name(kind), Table::num(rounds),
                 Table::num(fast_ms, 2), Table::num(gen_ms, 2),
                 Table::num(gen_ms / std::max(fast_ms, 1e-9), 2)});
    }
  }
  t.print();
  std::printf("Expected shape: identical rounds per overlay; the barrier "
              "column edges out the\ngeneral primitive by skipping the "
              "n-sized optional<Val> input build and CombineFn\ncalls "
              "(message delivery dominates both, so the win is the dropped "
              "allocation churn\nplus a few percent of wall time; the "
              "augmented-cube rows also show the tree's\nround win).\n\n");
}

int main(int argc, char** argv) {
  BenchOpts opts = parse_opts(argc, argv);
  std::printf("== Primitive costs (Theorems 2.2-2.6) ==\n");
  std::printf("   engine threads: %u\n\n", opts.threads);
  bench_ab(opts);
  bench_barrier(opts);
  bench_aggregation(opts);
  bench_multicast(opts);
  return 0;
}
