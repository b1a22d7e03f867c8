// Experiment OVL (Section 6 / footnote 4): the butterfly overlay all
// primitives run over can be built when nodes initially know only ring
// neighbors plus Theta(log n) random contacts. Measures join rounds,
// introduction-request hop counts (Chord-style greedy: O(log n) w.h.p.) and
// the final knowledge-set sizes (stay O(log n)).
#include "bench_util.hpp"
#include "core/overlay_join.hpp"
#include "overlay/overlay.hpp"

using namespace ncc;
using namespace ncc::bench;

int main(int argc, char** argv) {
  BenchOpts opts = parse_opts(argc, argv);
  bool quick = opts.quick;
  std::printf("== OVL: butterfly overlay from Theta(log n) random contacts "
              "(Section 6) ==\n");
  std::printf("   engine threads: %u\n\n", opts.threads);
  Table t({"n", "rounds", "requests", "avg hops", "max hops", "knowledge min/max",
           "pred hops=log n", "complete"});
  std::vector<double> hops_measured, hops_pred;
  std::vector<NodeId> sizes = quick ? std::vector<NodeId>{128, 512}
                                    : std::vector<NodeId>{128, 256, 512, 1024,
                                                          2048, 4096};
  for (NodeId n : sizes) {
    Network net = make_net(n, n * 3);
    auto eng = attach_engine(net, opts.threads);
    Overlay topo(OverlayKind::kButterfly, n);
    auto res = build_overlay_join(net, topo, {}, n * 3);
    double avg = static_cast<double>(res.total_hops) /
                 static_cast<double>(std::max<uint64_t>(1, res.requests));
    t.add_row({Table::num(uint64_t{n}), Table::num(res.rounds),
               Table::num(res.requests), Table::num(avg, 2),
               Table::num(uint64_t{res.max_hops}),
               Table::num(uint64_t{res.min_knowledge}) + "/" +
                   Table::num(uint64_t{res.max_knowledge}),
               Table::num(lg(n), 0), res.complete ? "yes" : "NO"});
    hops_measured.push_back(avg);
    hops_pred.push_back(lg(n));
  }
  t.print();
  print_fit("avg hops vs log n", hops_measured, hops_pred);
  std::printf("\nExpected shape: hops and knowledge grow logarithmically; join\n"
              "rounds polylogarithmic — the full-clique knowledge assumption is\n"
              "not load-bearing, as Section 6 claims.\n");
  return 0;
}
