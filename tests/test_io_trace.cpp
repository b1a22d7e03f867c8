// Tests for the Barabasi-Albert generator and the round ledger's per-round
// columns (sent, max in-degree) and per-node totals on hand-made sends and
// on a real gossip run.
#include <gtest/gtest.h>

#include "core/gossip.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "obs/round_ledger.hpp"

using namespace ncc;

TEST(PerRoundObservers, RecordsPerRoundSeries) {
  NetConfig cfg;
  cfg.n = 16;
  cfg.seed = 1;
  Network net(cfg);
  obs::RoundLedger ledger(net);
  // Round 0: 3 messages, two to node 5.
  net.send(0, 5, 1, {1});
  net.send(1, 5, 1, {1});
  net.send(2, 6, 1, {1});
  net.end_round();
  // Round 1: quiet. Round 2: 1 message.
  net.end_round();
  net.send(3, 7, 1, {1});
  net.end_round();

  // Both columns are dense in round index: the quiet round is a 0 entry.
  EXPECT_EQ(ledger.sent(), (std::vector<uint64_t>{3, 0, 1}));
  EXPECT_EQ(ledger.max_in_degree(), (std::vector<uint32_t>{2, 0, 1}));
  EXPECT_EQ(ledger.peak_in_degree(), 2u);
  EXPECT_EQ(ledger.peak_node(), 5u);
  EXPECT_EQ(ledger.peak_round(), 0u);
}

TEST(BarabasiAlbert, ShapeAndArboricity) {
  Rng rng(7);
  Graph g = barabasi_albert_graph(200, 3, rng);
  EXPECT_EQ(g.n(), 200u);
  // m = seed clique + k per new node.
  EXPECT_EQ(g.m(), 6u + 3u * (200 - 4));
  EXPECT_TRUE(is_connected(g));
  // Outdegree-k construction bounds degeneracy by 2k-ish.
  EXPECT_LE(degeneracy(g).degeneracy, 2 * 3u);
}

TEST(RoundLedger, CongestionCoversARealAlgorithmRun) {
  // Observe an actual gossip run: every delivered message must be accounted.
  NetConfig cfg;
  cfg.n = 64;
  cfg.seed = 3;
  Network net(cfg);
  obs::RoundLedger ledger(net);
  run_gossip(net);
  uint64_t delivered = 0;
  for (NodeId u = 0; u < net.n(); ++u) delivered += ledger.node_messages(u);
  EXPECT_EQ(delivered, net.stats().messages_sent - net.stats().messages_dropped);
  EXPECT_EQ(ledger.peak_in_degree(), net.stats().max_recv_load);
}
