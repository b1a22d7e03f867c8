// Tests for the shared-randomness context (primitives/context.hpp): hash
// ranges, determinism, the setup-cost charging of make_family, and the
// Message/NetConfig plumbing edge cases.
#include <gtest/gtest.h>

#include "overlay/overlay.hpp"
#include "primitives/context.hpp"

using namespace ncc;

TEST(SharedContext, DestColumnsInRangeAndSpread) {
  Shared shared(300, 5);
  const NodeId cols = shared.topo().columns();
  std::vector<uint32_t> hits(cols, 0);
  for (uint64_t g = 0; g < 10000; ++g) {
    NodeId c = shared.dest_col(g);
    ASSERT_LT(c, cols);
    ++hits[c];
  }
  // ~39 expected per column; no column starved or hammered (wide margins).
  for (NodeId c = 0; c < cols; ++c) {
    EXPECT_GT(hits[c], 5u) << c;
    EXPECT_LT(hits[c], 200u) << c;
  }
}

TEST(SharedContext, DeterministicPerSeed) {
  Shared a(128, 9), b(128, 9), c(128, 10);
  for (uint64_t g = 0; g < 50; ++g) {
    EXPECT_EQ(a.dest_col(g), b.dest_col(g));
    EXPECT_EQ(a.rank(g), b.rank(g));
  }
  bool any_diff = false;
  for (uint64_t g = 0; g < 50; ++g) any_diff = any_diff || a.rank(g) != c.rank(g);
  EXPECT_TRUE(any_diff);
}

TEST(SharedContext, LocalRngTagsIndependent) {
  Shared shared(64, 11);
  Rng r1 = shared.local_rng(1);
  Rng r1b = shared.local_rng(1);
  Rng r2 = shared.local_rng(2);
  EXPECT_EQ(r1.next(), r1b.next());
  Rng r1c = shared.local_rng(1);
  EXPECT_NE(r1c.next(), r2.next());
}

TEST(SharedContext, MakeFamilyChargesSetupRounds) {
  Shared shared(256, 13);
  NetConfig cfg;
  cfg.n = 256;
  cfg.seed = 13;
  Network net(cfg);
  uint64_t before = net.stats().charged_rounds;
  HashFamily fam = shared.make_family(net, 0xabc, 8, 16);
  EXPECT_EQ(fam.size(), 8u);
  uint64_t charged = net.stats().charged_rounds - before;
  // 2 log n + words/log n: 8 functions * 16 words = 128 words, log n = 8.
  EXPECT_EQ(charged, 2ull * 8 + 128 / 8);
  // Deterministic: the same tag yields the same functions.
  HashFamily fam2 = shared.make_family(net, 0xabc, 8, 16);
  EXPECT_EQ(fam.fn(3)(777), fam2.fn(3)(777));
}

TEST(SharedContext, MakeFamilyChargeMatchesOverlayDepth) {
  // The seed-broadcast charge is the overlay's, not a fixed butterfly
  // formula: the augmented cube's aggregation tree is ceil((d+1)/2) deep, so
  // the depth term halves while the bandwidth term (words per ceil(log n))
  // stays the model's.
  NetConfig cfg;
  cfg.n = 256;
  cfg.seed = 13;
  Network bf_net(cfg), aq_net(cfg);
  Shared bf(256, 13, OverlayKind::kButterfly);
  Shared aq(256, 13, OverlayKind::kAugmentedCube);
  bf.make_family(bf_net, 0xabc, 8, 16);
  aq.make_family(aq_net, 0xabc, 8, 16);
  // d = 8: butterfly 2*8 + 128/8; AQ_d 2*ceil(9/2) + 128/8.
  EXPECT_EQ(bf_net.stats().charged_rounds, 2ull * 8 + 128 / 8);
  EXPECT_EQ(aq_net.stats().charged_rounds, 2ull * 5 + 128 / 8);
  EXPECT_LT(aq_net.stats().charged_rounds, bf_net.stats().charged_rounds);
  // Default-tree overlays keep the seed charge bit for bit.
  Network r4_net(cfg);
  Shared r4(256, 13, OverlayKind::kRadix4Butterfly);
  r4.make_family(r4_net, 0xabc, 8, 16);
  EXPECT_EQ(r4_net.stats().charged_rounds, bf_net.stats().charged_rounds);
}

TEST(NetConfigEdge, SmallestNetworkWorks) {
  NetConfig cfg;
  cfg.n = 2;
  cfg.seed = 1;
  Network net(cfg);
  EXPECT_EQ(net.cap(), 8u);  // 8 * cap_log(2) = 8 * 1
  net.send(0, 1, 1, {42});
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  Overlay topo(OverlayKind::kButterfly, 2);
  EXPECT_EQ(topo.dims(), 1u);
  EXPECT_EQ(topo.columns(), 2u);
}

TEST(NetConfigEdgeDeathTest, RejectsSingletonNetworks) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        NetConfig cfg;
        cfg.n = 1;
        Network net(cfg);
      },
      "at least two nodes");
}
