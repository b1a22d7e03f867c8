// Unit tests for the NCC simulator itself: capacity enforcement, the random
// drop rule for receive overload, statistics, determinism, round hooks.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/network.hpp"

using namespace ncc;

namespace {
Network make(NodeId n, uint32_t factor = 8, bool strict = true, uint64_t seed = 1) {
  NetConfig cfg;
  cfg.n = n;
  cfg.capacity_factor = factor;
  cfg.strict_send = strict;
  cfg.seed = seed;
  return Network(cfg);
}
}  // namespace

TEST(Network, CapacityIsFactorTimesLog) {
  EXPECT_EQ(make(1024, 8).cap(), 80u);
  EXPECT_EQ(make(1024, 2).cap(), 20u);
  EXPECT_EQ(make(2, 4).cap(), 4u);  // cap_log never 0
}

TEST(Network, DeliversNextRound) {
  Network net = make(4);
  net.send(0, 1, 7, {42, 43});
  EXPECT_TRUE(net.inbox(1).empty());  // not yet delivered
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].src, 0u);
  EXPECT_EQ(net.inbox(1)[0].tag, 7u);
  EXPECT_EQ(net.inbox(1)[0].word(0), 42u);
  EXPECT_EQ(net.inbox(1)[0].word(1), 43u);
  net.end_round();
  EXPECT_TRUE(net.inbox(1).empty());  // inboxes are per-round
  EXPECT_EQ(net.rounds(), 2u);
}

TEST(Network, ReceiveOverloadDropsToCapacity) {
  const NodeId n = 64;
  Network net = make(n, 2);  // cap = 12
  // Everyone floods node 0.
  for (NodeId u = 1; u < n; ++u) net.send(u, 0, 1, {u});
  net.end_round();
  EXPECT_EQ(net.inbox(0).size(), net.cap());
  EXPECT_EQ(net.stats().messages_dropped, (n - 1) - net.cap());
  EXPECT_EQ(net.stats().max_recv_load, n - 1);
  // Surviving subset holds distinct senders.
  std::set<NodeId> srcs;
  for (const Message& m : net.inbox(0)) srcs.insert(m.src);
  EXPECT_EQ(srcs.size(), net.cap());
}

TEST(Network, DropSubsetIsSeedDependentButDeterministic) {
  auto run = [](uint64_t seed) {
    Network net = make(64, 2, true, seed);
    for (NodeId u = 1; u < 64; ++u) net.send(u, 0, 1, {u});
    net.end_round();
    std::vector<NodeId> srcs;
    for (const Message& m : net.inbox(0)) srcs.push_back(m.src);
    return srcs;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(NetworkDeathTest, StrictSendAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Network net = make(16, 1, true);  // cap = 4
        for (int i = 0; i < 6; ++i) net.send(0, 1 + i, 1, {1});
      },
      "send capacity exceeded");
}

TEST(Network, NonStrictCountsViolations) {
  Network net = make(16, 1, false);  // cap = 4
  for (NodeId i = 0; i < 8; ++i) net.send(0, 1 + i, 1, {1});
  net.end_round();
  EXPECT_EQ(net.stats().send_violations, 4u);
  EXPECT_EQ(net.stats().max_send_load, 8u);
}

TEST(NetworkDeathTest, RejectsSelfMessages) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Network net = make(4);
        net.send(2, 2, 1, {1});
      },
      "do not message themselves");
}

TEST(Network, RoundHookReadsEveryDeliveredMessage) {
  Network net = make(8);
  std::vector<std::pair<NodeId, uint64_t>> seen;  // (dst, round)
  net.add_round_hook([&](uint64_t round, const NetStats&) {
    net.for_each_delivered([&](NodeId u, uint32_t) {
      for (const Message& m : net.inbox(u)) seen.emplace_back(m.dst, round);
    });
  });
  net.send(0, 1, 1, {1});
  net.send(2, 3, 1, {1});
  net.end_round();
  net.send(4, 5, 1, {1});
  net.end_round();
  const std::vector<std::pair<NodeId, uint64_t>> expect = {{1, 0}, {3, 0}, {5, 1}};
  EXPECT_EQ(seen, expect);
}

TEST(Network, ChargedRoundsTracked) {
  Network net = make(8);
  net.end_round();
  net.charge_rounds(10);
  EXPECT_EQ(net.rounds(), 1u);
  EXPECT_EQ(net.stats().charged_rounds, 10u);
  EXPECT_EQ(net.stats().total_rounds(), 11u);
}

TEST(MessageType, PayloadBudgetEnforced) {
  Message m(0, 1, 2, {1, 2, 3, 4});
  EXPECT_EQ(m.nwords, 4u);
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH((void)Message(0, 1, 2, {1, 2, 3, 4, 5}), "payload too large");
  EXPECT_DEATH((void)m.word(4), "");
}
