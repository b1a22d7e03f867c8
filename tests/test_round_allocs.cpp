// Real heap traffic per simulated round.
//
// This binary replaces the global operator new/delete with counting
// versions, so "steady-state rounds allocate nothing" is checked against
// every allocation the process makes — not only the growth events of the
// containers NetMemStats tracks (the ledgers' `allocs` column). Each test
// warms its containers with a few rounds, then requires a run of further
// rounds to make zero allocations: an empty end_round(), an end_round()
// with traffic, sync_barrier, a general Aggregate-and-Broadcast, and the
// router's route_down/route_up rounds — each with and without an Engine
// attached.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "engine/engine.hpp"
#include "net/network.hpp"
#include "overlay/router.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/context.hpp"

namespace {
std::atomic<uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace ncc;

namespace {

uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

NetConfig cfg_for(NodeId n) {
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 3;
  return cfg;
}

// One round of steady traffic: every node sends two messages through a send
// loop and a few direct send()s follow; the pattern shifts each round but
// its volume per node does not.
void traffic_round(Network& net, uint64_t r) {
  const NodeId n = net.n();
  engine_send_loop(net, n, [&](uint64_t i, Network& out) {
    const NodeId u = static_cast<NodeId>(i);
    out.send(u, static_cast<NodeId>((u + 1 + r % 7) % n), 1, {u, r});
    out.send(u, static_cast<NodeId>((u + 9 + r % 5) % n), 2, {r});
  });
  for (NodeId u = 0; u < 8; ++u) net.send(u, static_cast<NodeId>(n - 1 - u), 3, {u, u, r});
  net.end_round();
}

// Allocations made by `rounds` calls of body(r), after `warm` warm-up calls.
template <class Body>
uint64_t steady_allocs(uint64_t warm, uint64_t rounds, Body&& body) {
  for (uint64_t r = 0; r < warm; ++r) body(r);
  const uint64_t before = allocs();
  for (uint64_t r = warm; r < warm + rounds; ++r) body(r);
  return allocs() - before;
}

}  // namespace

TEST(RoundAllocs, CounterSeesHeapTraffic) {
  const uint64_t before = allocs();
  auto v = std::make_unique<std::vector<int>>(100);
  EXPECT_GE(allocs() - before, 2u);
}

TEST(RoundAllocs, EmptyEndRoundAllocatesNothing) {
  for (bool engine : {false, true}) {
    Network net(cfg_for(4096));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    traffic_round(net, 0);  // a busy round first: its inboxes must expire
    EXPECT_EQ(steady_allocs(2, 200, [&](uint64_t) { net.end_round(); }), 0u)
        << "engine " << engine;
    EXPECT_EQ(net.inbox(1).size(), 0u);
  }
}

TEST(RoundAllocs, TrafficRoundAllocatesNothing) {
  for (bool engine : {false, true}) {
    Network net(cfg_for(512));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    EXPECT_EQ(steady_allocs(8, 100, [&](uint64_t r) { traffic_round(net, r); }), 0u)
        << "engine " << engine;
    EXPECT_EQ(net.stats().messages_dropped, 0u);
  }
}

TEST(RoundAllocs, SyncBarrierAllocatesNothing) {
  for (bool engine : {false, true}) {
    const NodeId n = 200;  // not a power of two: attach/detach rounds carry traffic
    Network net(cfg_for(n));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    Shared shared(n, 5);
    const uint64_t r0 = net.rounds();
    EXPECT_EQ(steady_allocs(2, 20,
                            [&](uint64_t) {
                              sync_barrier(shared.topo(), net, shared.barrier_workspace());
                            }),
              0u)
        << "engine " << engine;
    EXPECT_EQ(net.rounds() - r0, 22 * (2 * uint64_t{shared.topo().agg_steps()} + 2));
  }
}

// A general A&B on a warm workspace: same schedule as the barrier, with
// sparse inputs and a CombineFn; the inputs are built before the measured
// calls.
TEST(RoundAllocs, AggregateBroadcastAllocatesNothing) {
  for (bool engine : {false, true}) {
    const NodeId n = 200;
    Network net(cfg_for(n));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    Shared shared(n, 5);
    std::vector<std::optional<Val>> inputs(n);
    for (NodeId u = 3; u < n; u += 7) inputs[u] = Val{u, 1};
    std::optional<Val> value;
    EXPECT_EQ(steady_allocs(2, 20,
                            [&](uint64_t) {
                              value = aggregate_and_broadcast(shared.topo(), net,
                                                              shared.barrier_workspace(),
                                                              inputs, agg::sum)
                                          .value;
                            }),
              0u)
        << "engine " << engine;
    ASSERT_TRUE(value.has_value());
    uint64_t expect = 0;
    for (NodeId u = 3; u < n; u += 7) expect += u;
    EXPECT_EQ((*value)[0], expect);
  }
}

// Router rounds on a warm workspace: every routing state on the packets'
// paths was sized by an identical earlier call. Packets need F rounds to
// descend to the final level F (route_up: to climb back to level 0), so
// rounds 1 .. F-1 route through warm queues and step buffers only and must
// allocate nothing. Round 0 also holds the call's setup, and later rounds
// fill the call's own result tables (root_values/root_col, the leaf lists),
// which are fresh per call by design.
TEST(RoundAllocs, RouterRoundsOnWarmWorkspaceAllocateNothing) {
  for (bool engine : {false, true}) {
    const NodeId n = 64;
    Network net(cfg_for(n));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    Shared shared(n, 9);
    const Overlay& topo = shared.topo();
    const uint32_t F = topo.levels() - 1;
    // Every column holds a packet of each of 24 groups: edges contend, so
    // the descent takes well over F rounds.
    std::vector<std::vector<AggPacket>> at_col(topo.columns());
    for (NodeId c = 0; c < topo.columns(); ++c)
      for (uint64_t g = 0; g < 24; ++g) at_col[c].push_back({g, Val{c, 1}});
    auto dest = [&](uint64_t g) { return shared.dest_col(g); };
    auto rank = [&](uint64_t g) { return shared.rank(g); };
    RouterWorkspace& ws = shared.router_workspace();
    MulticastTrees trees;
    trees.leaf_members.resize(topo.columns());
    const DownResult down = route_down(topo, net, ws, at_col, dest, rank, agg::sum, &trees);

    std::vector<uint64_t> at_hook;
    at_hook.reserve(1024);
    net.add_round_hook([&](uint64_t, const NetStats&) { at_hook.push_back(allocs()); });
    // Allocations per round of one call: entry i covers the call's work
    // from the previous round hook (or the call's start) to round i's hook.
    auto per_round = [&](auto&& call) {
      at_hook.clear();
      const uint64_t start = allocs();
      call();
      std::vector<uint64_t> out;
      for (size_t i = 0; i < at_hook.size(); ++i)
        out.push_back(at_hook[i] - (i == 0 ? start : at_hook[i - 1]));
      return out;
    };
    auto down_call = [&] {
      std::vector<std::vector<AggPacket>> packets = at_col;  // copied before the call
      return per_round([&] {
        route_down(topo, net, ws, std::move(packets), dest, rank, agg::sum);
      });
    };
    auto up_call = [&] {
      return per_round([&] { route_up(topo, net, ws, trees, down.root_values, rank); });
    };
    for (int warm = 0; warm < 2; ++warm) {
      down_call();
      up_call();
    }
    const std::vector<uint64_t> down_rounds = down_call();
    ASSERT_GT(down_rounds.size(), 2u * F);
    for (uint32_t r = 1; r < F; ++r)
      EXPECT_EQ(down_rounds[r], 0u) << "route_down round " << r << " engine " << engine;
    const std::vector<uint64_t> up_rounds = up_call();
    ASSERT_GT(up_rounds.size(), uint64_t{F});
    for (uint32_t r = 1; r < F; ++r)
      EXPECT_EQ(up_rounds[r], 0u) << "route_up round " << r << " engine " << engine;
  }
}
