// Differential test of the message plane against a literal reference model.
//
// RefNetwork below is the NCC round written straight from its definition —
// one vector of pending messages, one inbox vector per node, no shards, no
// arenas, no touched lists: per-node send/receive capacity, fault hooks in
// their documented order (begin_round, then drop and corrupt per message in
// send order, then recv_cap), and the reservoir drop rule with its RNG forked
// per (round, destination). The SoA Network — with and without an engine
// timing it — runs the same seeded traffic, and every inbox and every
// NetStats field must agree after every round. A rerun cannot catch a
// counting, reservoir or stale-inbox bug that every run shares; this can.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "net/network.hpp"

using namespace ncc;

namespace {

class RefNetwork {
 public:
  explicit RefNetwork(const NetConfig& cfg)
      : cfg_(cfg),
        cap_(cfg.capacity_factor * cap_log(cfg.n)),
        drop_seed_(mix64(cfg.seed ^ 0x6e65747730726bULL)),
        sent_(cfg.n, 0),
        inbox_(cfg.n) {}

  void install_fault_hooks(FaultHooks hooks) { faults_ = std::move(hooks); }

  void send(const Message& m) {
    pending_.push_back(m);
    ++stats_.messages_sent;
    if (++sent_[m.src] > cap_) ++stats_.send_violations;
  }

  void end_round() {
    const uint64_t round = stats_.rounds;
    for (uint32_t& s : sent_) {
      stats_.max_send_load = std::max(stats_.max_send_load, s);
      s = 0;
    }
    if (faults_.begin_round) faults_.begin_round(round);
    std::vector<std::vector<Message>> arrivals(cfg_.n);
    for (uint64_t idx = 0; idx < pending_.size(); ++idx) {
      Message m = pending_[idx];
      if (faults_.drop && faults_.drop(m, round, idx)) {
        ++stats_.fault_drops;
        continue;
      }
      if (faults_.corrupt && faults_.corrupt(m, round, idx)) ++stats_.corrupted;
      arrivals[m.dst].push_back(m);
    }
    pending_.clear();
    uint32_t rcap = cap_;
    if (faults_.recv_cap) rcap = std::max<uint32_t>(1, faults_.recv_cap(round, cap_));
    for (NodeId u = 0; u < cfg_.n; ++u) {
      const std::vector<Message>& arr = arrivals[u];
      std::vector<Message>& in = inbox_[u];
      in.clear();
      stats_.max_recv_load =
          std::max(stats_.max_recv_load, static_cast<uint32_t>(arr.size()));
      if (arr.size() > rcap) stats_.messages_dropped += arr.size() - rcap;
      // Reservoir sampling over arrival order: the first rcap arrivals fill
      // the inbox, arrival k >= rcap replaces slot j ~ U[0, k] if j < rcap.
      Rng rng(mix64(mix64(drop_seed_ ^ round) ^ u));
      for (uint64_t k = 0; k < arr.size(); ++k) {
        if (k < rcap) {
          in.push_back(arr[k]);
        } else if (uint64_t j = rng.next_below(k + 1); j < rcap) {
          in[j] = arr[k];
        }
      }
    }
    ++stats_.rounds;
  }

  const std::vector<Message>& inbox(NodeId u) const { return inbox_[u]; }
  const NetStats& stats() const { return stats_; }

 private:
  NetConfig cfg_;
  uint32_t cap_;
  uint64_t drop_seed_;
  NetStats stats_;
  FaultHooks faults_;
  std::vector<Message> pending_;
  std::vector<uint32_t> sent_;
  std::vector<std::vector<Message>> inbox_;
};

// One message of the seeded traffic, a pure function of its coordinates so
// both models can generate it independently. Destinations are skewed: a few
// hot nodes are addressed far beyond their receive capacity.
Message traffic_msg(NodeId n, uint64_t round, uint64_t batch, uint64_t i, uint64_t j) {
  const uint64_t h = mix64(mix64(mix64(round * 131 + batch) ^ i) ^ j);
  const NodeId src = static_cast<NodeId>(i % n);
  NodeId dst = (h & 3) == 0 ? static_cast<NodeId>((h >> 8) % 3)
                            : static_cast<NodeId>((h >> 8) % n);
  if (dst == src) dst = (dst + 1) % n;
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = static_cast<uint32_t>(h >> 40);
  m.nwords = static_cast<uint8_t>((h >> 20) % (kMaxMessageWords + 1));
  for (uint8_t w = 0; w < m.nwords; ++w) m.words[w] = mix64(h + w);
  return m;
}

// Faults keyed only on their arguments, so the two models see the same
// decisions.
FaultHooks seeded_faults() {
  FaultHooks f;
  f.drop = [](const Message& m, uint64_t round, uint64_t idx) {
    return mix64(round * 7919 + idx * 31 + m.src) % 11 == 0;
  };
  f.corrupt = [](Message& m, uint64_t round, uint64_t idx) {
    const uint64_t h = mix64(round ^ (idx << 20) ^ 0xc0de);
    if (h % 7 != 0) return false;
    m.tag ^= 0x5a;
    if (m.nwords > 0) m.words[0] ^= h;
    return true;
  };
  f.recv_cap = [](uint64_t round, uint32_t cap) {
    return round % 3 == 0 ? cap / 4 : round % 3 == 1 ? cap : 0;
  };
  return f;
}

void expect_same(const Network& net, const RefNetwork& ref, uint64_t round) {
  const NetStats& a = net.stats();
  const NetStats& b = ref.stats();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << "round " << round;
  EXPECT_EQ(a.fault_drops, b.fault_drops);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.max_send_load, b.max_send_load);
  EXPECT_EQ(a.max_recv_load, b.max_recv_load);
  EXPECT_EQ(a.send_violations, b.send_violations);
  for (NodeId u = 0; u < net.n(); ++u) {
    const InboxView got = net.inbox(u);
    const std::vector<Message>& want = ref.inbox(u);
    ASSERT_EQ(got.size(), want.size()) << "round " << round << " node " << u;
    for (size_t k = 0; k < want.size(); ++k) {
      const Message m = got[k];
      ASSERT_EQ(m.src, want[k].src) << "round " << round << " node " << u << " slot " << k;
      ASSERT_EQ(m.dst, want[k].dst);
      ASSERT_EQ(m.tag, want[k].tag);
      ASSERT_EQ(m.nwords, want[k].nwords);
      for (uint8_t w = 0; w < m.nwords; ++w) ASSERT_EQ(m.words[w], want[k].words[w]);
    }
  }
}

enum class Mode { kSequential, kEngine };

// Seeded rounds of mixed traffic: busy rounds of interleaved direct send()s
// and send loops (some overloading the hot destinations), each followed at
// random by empty rounds that must clear every inbox the busy round filled.
void run_differential(NodeId n, Mode mode, bool faults, uint64_t seed) {
  NetConfig cfg;
  cfg.n = n;
  cfg.capacity_factor = 2;
  cfg.strict_send = false;
  cfg.seed = seed;
  Network net(cfg);
  RefNetwork ref(cfg);
  std::optional<Engine> eng;
  if (mode == Mode::kEngine) eng.emplace(net);
  if (faults) {
    net.install_fault_hooks(seeded_faults());
    ref.install_fault_hooks(seeded_faults());
  }
  Rng plan(seed * 977 + n);
  for (uint64_t round = 0; round < 60; ++round) {
    const uint64_t kind = plan.next_below(4);  // 0: empty, 1: light, 2-3: busy
    const uint64_t batches = kind == 0 ? 0 : 1 + plan.next_below(4);
    for (uint64_t b = 0; b < batches; ++b) {
      const uint64_t items = plan.next_below(kind == 1 ? 8 : 4 * uint64_t{n});
      const uint64_t per_item = 1 + plan.next_below(2);
      if (plan.next_bool()) {
        for (uint64_t i = 0; i < items; ++i)
          for (uint64_t j = 0; j < per_item; ++j) {
            const Message m = traffic_msg(n, round, b, i, j);
            net.send(m);
            ref.send(m);
          }
      } else {
        engine_send_loop(net, items, [&](uint64_t i, Network& out) {
          for (uint64_t j = 0; j < per_item; ++j) out.send(traffic_msg(n, round, b, i, j));
        });
        for (uint64_t i = 0; i < items; ++i)
          for (uint64_t j = 0; j < per_item; ++j) ref.send(traffic_msg(n, round, b, i, j));
      }
    }
    net.end_round();
    ref.end_round();
    expect_same(net, ref, round);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(ref.stats().messages_dropped, 0u);  // the hot nodes overloaded
  if (faults) {
    EXPECT_GT(ref.stats().fault_drops, 0u);
    EXPECT_GT(ref.stats().corrupted, 0u);
  }
}

}  // namespace

TEST(NetworkReference, SequentialMatchesReference) {
  for (uint64_t seed : {1, 2, 3}) run_differential(64, Mode::kSequential, false, seed);
}

TEST(NetworkReference, EngineAttachedMatchesReference) {
  for (uint64_t seed : {1, 2, 3}) run_differential(64, Mode::kEngine, false, seed);
  run_differential(257, Mode::kEngine, false, 4);  // n not a power of two
}

TEST(NetworkReference, FaultHooksMatchReference) {
  for (Mode mode : {Mode::kSequential, Mode::kEngine})
    for (uint64_t seed : {5, 6}) run_differential(96, mode, true, seed);
}
