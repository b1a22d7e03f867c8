// Experiment OVERLAY: the same primitive workloads routed over the
// pluggable overlays — the paper's butterfly, the hypercube Q_d, the
// augmented cube AQ_d (arXiv:1508.07257 construction) and the
// level-dependent radix-4 butterfly.
//
// Expected shape, verified by the rows:
//  * hypercube == butterfly exactly in rounds and messages (the butterfly is
//    the time-unrolled hypercube; only the congestion accounting differs);
//  * augmented_cube trades rounds for bandwidth: ceil((d+1)/2) routing levels
//    instead of d (combining/spreading phases shorten) at a 2d-1 per-node
//    degree (termination tokens multiply, so messages grow).
//
// Workloads: the Aggregation Algorithm (Theorem 2.3, G groups over L items),
// multicast tree setup + spreading (Theorems 2.4/2.5), and a barrier-bound
// workload (back-to-back sync_barriers — the overlay-native aggregation
// tree's round win undiluted by routing phases: the augmented cube runs each
// barrier in 2*ceil((d+1)/2)+2 rounds against the binary tree's 2d+2), all
// through the real Shared/Network stack so barriers and injection rounds are
// included. Emits BENCH_overlay.json: one row per (workload, overlay, n)
// with rounds/messages plus the peak_bytes/allocs memory columns (peak
// container capacity and allocation count); the row name encodes the
// overlay. Every column is a counter, reproducible per row, so the
// bench_ledger_overlay ctest byte-compares them with the committed ledger.
#include <string>

#include "bench_util.hpp"
#include "overlay/overlay.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/aggregation.hpp"
#include "primitives/multicast.hpp"

using namespace ncc;
using namespace ncc::bench;

namespace {

// capacity_factor 16 funds AQ_d's 2d-1 per-round degree under strict_send
// (the butterfly needs only 8; both run with the same budget for fairness).
Network make_overlay_net(NodeId n, uint64_t seed) {
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.capacity_factor = 16;
  return Network(cfg);
}

struct Row {
  uint64_t rounds = 0;
  uint64_t messages = 0;
  uint32_t congestion = 0;
  uint64_t peak_bytes = 0;  // peak network container capacity
  uint64_t allocs = 0;      // capacity-growth events on the same containers
};

Row run_aggregation_workload(OverlayKind kind, NodeId n) {
  Network net = make_overlay_net(n, 42);
  Shared shared(n, 42, kind);
  const uint64_t groups = n / 4;
  AggregationProblem prob;
  prob.combine = agg::sum;
  prob.target = [n](uint64_t g) { return static_cast<NodeId>(g % n); };
  prob.ell2_hat = 1;
  Rng rng(7);
  for (uint64_t i = 0; i < 8ull * n; ++i)
    prob.items.push_back({static_cast<NodeId>(rng.next_below(n)),
                          rng.next_below(groups), Val{1, 0}});
  AggregationResult res = run_aggregation(shared, net, prob, 1);
  NCC_ASSERT_MSG(res.at_target.size() == groups, "aggregation lost groups");
  return {net.stats().rounds, net.stats().messages_sent, res.route.congestion,
          net.mem_stats().container_bytes_peak, net.mem_stats().allocs};
}

Row run_multicast_workload(OverlayKind kind, NodeId n) {
  Network net = make_overlay_net(n, 43);
  Shared shared(n, 43, kind);
  const uint64_t groups = n / 8;
  std::vector<MulticastMembership> members;
  for (NodeId u = 0; u < n; ++u) members.push_back({u, u % groups});
  MulticastSetupResult setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/0, 1);
  std::vector<MulticastSend> sends;
  for (uint64_t g = 0; g < groups; ++g)
    sends.push_back({g, static_cast<NodeId>(g), Val{0xbeef + g, 0}});
  MulticastResult res = run_multicast(shared, net, setup.trees, sends, 1, 1);
  uint64_t delivered = 0;
  for (NodeId u = 0; u < n; ++u) delivered += !res.received[u].empty();
  NCC_ASSERT_MSG(delivered == n, "multicast missed members");
  return {net.stats().rounds, net.stats().messages_sent, setup.trees.congestion,
          net.mem_stats().container_bytes_peak, net.mem_stats().allocs};
}

Row run_barrier_workload(OverlayKind kind, NodeId n) {
  Network net = make_overlay_net(n, 44);
  Shared shared(n, 44, kind);
  const Overlay& topo = shared.topo();
  constexpr uint32_t kBarriers = 32;
  uint64_t per_barrier = 0;
  for (uint32_t i = 0; i < kBarriers; ++i)
    per_barrier = sync_barrier(topo, net, shared.barrier_workspace());
  NCC_ASSERT_MSG(per_barrier == 2ull * topo.agg_steps() + 2,
                 "barrier schedule drifted off the tree depth");
  return {net.stats().rounds, net.stats().messages_sent, 0,
          net.mem_stats().container_bytes_peak, net.mem_stats().allocs};
}

}  // namespace

int main(int argc, char** argv) {
  BenchOpts opts = parse_opts(argc, argv);
  std::printf("== OVERLAY: butterfly vs hypercube vs augmented cube vs "
              "radix-4 butterfly (pluggable overlay layer) ==\n");
  std::printf("\n");

  const std::vector<NodeId> sizes{128, 512, 2048};
  struct Workload {
    const char* name;
    Row (*run)(OverlayKind, NodeId);
  } workloads[] = {{"aggregation", run_aggregation_workload},
                   {"multicast", run_multicast_workload},
                   {"barrier_x32", run_barrier_workload}};

  BenchJson json;
  for (const Workload& w : workloads) {
    Table t({"n", "overlay", "levels", "rounds", "messages", "congestion",
             "rounds vs butterfly", "msgs vs butterfly"});
    for (NodeId n : sizes) {
      Row base{};
      for (OverlayKind kind : all_overlay_kinds()) {
        Row r = w.run(kind, n);
        if (kind == OverlayKind::kButterfly) base = r;
        auto topo = make_overlay(kind, n);
        t.add_row({Table::num(uint64_t{n}), overlay_name(kind),
                   Table::num(uint64_t{topo->levels()}), Table::num(r.rounds),
                   Table::num(r.messages), Table::num(uint64_t{r.congestion}),
                   Table::num(static_cast<double>(r.rounds) / base.rounds, 2),
                   Table::num(static_cast<double>(r.messages) / base.messages, 2)});
        json.add(std::string(w.name) + "/" + overlay_name(kind), n, r.rounds,
                 r.messages, mem_extra(r.peak_bytes, r.allocs));
      }
    }
    t.print(std::string("== ") + w.name + " ==");
  }
  json.save(opts.json.empty() ? "BENCH_overlay.json" : opts.json);
  return 0;
}
