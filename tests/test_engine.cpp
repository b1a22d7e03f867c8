// Unit tests for the round engine: the send loop, end_round delivery and the
// message arena. The recurring assertion is that attaching an Engine only
// adds timing: every observable effect is the same with and without one.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "engine/engine.hpp"
#include "net/message.hpp"

using namespace ncc;

namespace {

NetConfig net_cfg(NodeId n, uint64_t seed = 1, uint32_t factor = 8) {
  NetConfig cfg;
  cfg.n = n;
  cfg.capacity_factor = factor;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

TEST(Engine, AttachDetachRegistry) {
  Network net(net_cfg(8));
  EXPECT_EQ(Engine::of(net), nullptr);
  {
    Engine eng(net);
    EXPECT_EQ(Engine::of(net), &eng);
    EXPECT_EQ(eng.shard_timing().size(), 1u);
    EXPECT_EQ(eng.shard_memory().size(), 1u);
  }
  EXPECT_EQ(Engine::of(net), nullptr);
}

TEST(EngineDeathTest, SecondEngineOnOneNetworkAborts) {
  Network net(net_cfg(8));
  Engine eng(net);
  EXPECT_DEATH(Engine{net}, "network already has an engine attached");
}

TEST(EngineDeathTest, MoreThanOneThreadAborts) {
  Network net(net_cfg(8));
  EXPECT_DEATH((Engine{net, EngineConfig{2}}), "a round runs on one thread");
}

TEST(Engine, SendLoopMatchesSequentialOrder) {
  // The send loop's order must equal the plain sequential loop's whether or
  // not an engine is attached, so the delivered inboxes (which preserve
  // arrival order under capacity) and stats must match bit for bit.
  auto run = [](bool engine) {
    Network net(net_cfg(64, 3));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    engine_send_loop(net, 63, [&](uint64_t i, Network& out) {
      NodeId u = static_cast<NodeId>(i + 1);
      out.send(u, 0, 7, {u, u * u});
      NodeId other = static_cast<NodeId>(u % 63 + 1);  // 1..63, never == u
      if (other == u) other = (u == 1) ? 2 : 1;
      out.send(u, other, 8, {u});
    });
    net.end_round();
    std::vector<std::pair<NodeId, uint64_t>> got;
    for (const Message& m : net.inbox(0)) got.emplace_back(m.src, m.word(0));
    return std::make_tuple(got, net.stats().messages_sent, net.stats().messages_dropped,
                           net.stats().max_recv_load);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Network, OverloadDeliverySameWithEngineAttached) {
  // Flood node 0 far past its receive capacity: the surviving subset and all
  // stats must not depend on whether an engine times the delivery.
  auto run = [](bool engine) {
    Network net(net_cfg(512, 11, 2));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    for (int round = 0; round < 3; ++round) {
      engine_send_loop(net, 511, [&](uint64_t i, Network& out) {
        NodeId u = static_cast<NodeId>(i + 1);
        out.send(u, 0, 1, {u});
        NodeId spread = static_cast<NodeId>(1 + (u * 37) % 510);
        if (spread == u) spread = 511;
        out.send(u, spread, 2, {u});
      });
      net.end_round();
    }
    std::vector<NodeId> survivors;
    for (const Message& m : net.inbox(0)) survivors.push_back(m.src);
    NetStats st = net.stats();
    return std::make_tuple(survivors, st.messages_sent, st.messages_dropped,
                           st.max_send_load, st.max_recv_load);
  };
  auto seq = run(false);
  EXPECT_EQ(seq, run(true));
  EXPECT_GT(std::get<2>(seq), 0u);  // the overload actually dropped messages
}

TEST(Network, DeliveredOrderIsFirstArrivalUnderEngine) {
  auto run = [](bool engine) {
    Network net(net_cfg(32, 9));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    std::vector<std::pair<NodeId, NodeId>> seen;  // (dst, src) in delivered order
    net.add_round_hook([&](uint64_t, const NetStats&) {
      net.for_each_delivered([&](NodeId u, uint32_t) {
        for (const Message& m : net.inbox(u)) seen.emplace_back(m.dst, m.src);
      });
    });
    engine_send_loop(net, 31, [&](uint64_t i, Network& out) {
      NodeId u = static_cast<NodeId>(i + 1);
      out.send(u, (u + 1) % 32, 1, {u});
    });
    net.end_round();
    return seen;
  };
  // Destinations come in first-arrival (send) order: 2, 3, ..., 31, then 0.
  std::vector<std::pair<NodeId, NodeId>> expect;
  for (NodeId u = 1; u < 32; ++u) expect.emplace_back((u + 1) % 32, u);
  EXPECT_EQ(run(false), expect);
  EXPECT_EQ(run(true), expect);
}

TEST(MsgArena, RoundTripAndAllocDrain) {
  MsgArena a;
  a.push(Message(3, 4, 7, {10, 20}));
  a.push(Message((1u << 20) - 1, 0, 8, {}));
  EXPECT_EQ(a.size(), 2u);
  Message m0 = a.at(0);
  EXPECT_EQ(m0.src, 3u);
  EXPECT_EQ(m0.dst, 4u);
  EXPECT_EQ(m0.tag, 7u);
  EXPECT_EQ(m0.word(1), 20u);
  Message m1 = a.at(1);
  EXPECT_EQ(m1.src, (1u << 20) - 1);  // top-of-range id survives the header
  EXPECT_EQ(m1.nwords, 0u);
  // First fill grew capacity; take_allocs drains the counter exactly once.
  EXPECT_GT(a.take_allocs(), 0u);
  EXPECT_EQ(a.take_allocs(), 0u);
  // A refill within the warm capacity allocates nothing.
  a.clear();
  a.push(Message(5, 6, 9, {1, 2}));
  EXPECT_EQ(a.take_allocs(), 0u);
}

TEST(Arena, AllocsFlatAfterWarmUp) {
  // Steady-state rounds must be allocation-free: a constant-volume workload
  // grows every container (the pending arena, the inbox arena) during the
  // first rounds, after which the buffers are reused as-is.
  Network net(net_cfg(256, 17, 2));
  Engine eng(net);
  auto total_allocs = [&]() { return net.mem_stats().allocs; };
  auto round = [&]() {
    engine_send_loop(net, 255, [&](uint64_t i, Network& out) {
      NodeId u = static_cast<NodeId>(i + 1);
      out.send(u, 0, 1, {u, u * u});  // overloads node 0: reservoir path too
      NodeId spread = static_cast<NodeId>(1 + (u * 37) % 254);
      if (spread == u) spread = 255;
      out.send(u, spread, 2, {u});
    });
    net.end_round();
  };
  for (int r = 0; r < 3; ++r) round();  // warm-up
  uint64_t warm = total_allocs();
  for (int r = 0; r < 8; ++r) round();
  EXPECT_EQ(total_allocs(), warm);
}

TEST(Arena, InterleavedDirectAndLoopSendsMatchSequential) {
  // Direct send()s between send loops: the pending order must equal the
  // plain program order, bit for bit, including under receive-capacity
  // truncation, with or without an engine timing the loops.
  auto run = [](bool engine) {
    Network net(net_cfg(96, 13, 2));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    for (int round = 0; round < 2; ++round) {
      net.send(1, 0, 1, {100});  // direct: before any loop
      engine_send_loop(net, 95, [&](uint64_t i, Network& out) {
        NodeId u = static_cast<NodeId>(i + 1);
        out.send(u, 0, 2, {u});
      });
      net.send(2, 0, 3, {200});  // direct: between the loops
      engine_send_loop(net, 95, [&](uint64_t i, Network& out) {
        NodeId u = static_cast<NodeId>(i + 1);
        NodeId other = static_cast<NodeId>(u % 95 + 1);
        if (other == u) other = (u == 1) ? 2 : 1;
        out.send(u, other, 4, {u * 3});
      });
      net.end_round();
    }
    std::vector<std::tuple<NodeId, uint32_t, uint64_t>> got;
    for (const Message& m : net.inbox(0)) got.emplace_back(m.src, m.tag, m.word(0));
    NetStats st = net.stats();
    return std::make_tuple(got, st.messages_sent, st.messages_dropped,
                           st.max_recv_load);
  };
  auto seq = run(false);
  EXPECT_EQ(seq, run(true));
  EXPECT_GT(std::get<2>(seq), 0u);  // node 0 was actually truncated
}

TEST(Arena, MillionNodeIdBounds) {
  // Headers carry 32-bit node ids: drive traffic between ids at the extreme
  // ends of a 2^20-node network so near-maximal ids cross the whole
  // send -> deliver path intact. Sparse sends keep this cheap even
  // though the id space is a million wide.
  const NodeId n = 1u << 20;
  const std::vector<NodeId> probes{0, 1, n / 2, n - 2, n - 1};
  auto run = [&](bool engine) {
    Network net(net_cfg(n, 33));
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    for (int round = 0; round < 2; ++round) {
      engine_send_loop(net, probes.size(), [&](uint64_t i, Network& out) {
        NodeId u = probes[i];
        for (NodeId v : probes)
          if (v != u) out.send(u, v, 9, {(uint64_t{u} << 20) | v});
      });
      net.end_round();
    }
    std::vector<std::tuple<NodeId, NodeId, uint64_t>> got;
    for (NodeId v : probes)
      for (const Message& m : net.inbox(v)) got.emplace_back(m.src, m.dst, m.word(0));
    return std::make_pair(got, net.stats().messages_sent);
  };
  auto one = run(false);
  EXPECT_EQ(one, run(true));
  ASSERT_EQ(one.first.size(), probes.size() * (probes.size() - 1));
  for (const auto& [src, dst, w] : one.first)
    EXPECT_EQ(w, (uint64_t{src} << 20) | dst);  // ids round-tripped unmangled
}
