// Hot-key traffic + en-route combining cache tests: the Zipf request
// generator's spec axis, the CombiningCache unit contract (LRU bound,
// absorber lifecycle), and the scenario-level acceptance properties — warm
// waves hit, uniform traffic is untouched by an idle cache, aggregates stay
// exact with absorbers, verdicts stay honest under drop/byzantine faults,
// and everything is bit-identical whether cells run alone or at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "overlay/cache.hpp"
#include "primitives/aggregation.hpp"
#include "primitives/multicast.hpp"
#include "scenario/cells.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/traffic.hpp"

using namespace ncc;
using namespace ncc::scenario;

namespace {

ScenarioSpec parse_ok(const std::string& text) {
  std::string error;
  auto spec = parse_spec(text, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return spec.value_or(ScenarioSpec{});
}

void expect_reject(const std::string& text, const std::string& why_contains) {
  std::string error;
  auto spec = parse_spec(text, &error);
  EXPECT_FALSE(spec.has_value()) << "accepted:\n" << text;
  EXPECT_NE(error.find(why_contains), std::string::npos)
      << "error `" << error << "` does not mention `" << why_contains << "`";
}

/// Integer value of `"key": <v>` in a JSON string, or UINT64_MAX.
uint64_t json_counter(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return UINT64_MAX;
  return std::stoull(json.substr(at + key.size() + 4));
}

constexpr const char* kBase =
    "graph = gnm\nn = 192\nm = 768\nseed = 9\ncapacity_factor = 8\n";

}  // namespace

// --- spec axis -----------------------------------------------------------

TEST(HotkeySpec, ParsesAndRoundTrips) {
  ScenarioSpec s = parse_ok(std::string(kBase) +
                            "algorithm = multicast\ntraffic = zipf\n"
                            "zipf_s = 1.3\nhot_keys = 12\nrequest_waves = 4\n"
                            "cache = lru\ncache_size = 24\n");
  EXPECT_EQ(s.traffic, ScenarioSpec::Traffic::kZipf);
  EXPECT_DOUBLE_EQ(s.zipf_s, 1.3);
  EXPECT_EQ(s.hot_keys, 12u);
  EXPECT_EQ(s.request_waves, 4u);
  EXPECT_EQ(s.cache, ScenarioSpec::Cache::kLru);
  EXPECT_EQ(s.cache_size, 24u);
  // to_string -> parse round-trip preserves every axis.
  ScenarioSpec again = parse_ok(s.to_string());
  EXPECT_EQ(again.traffic, s.traffic);
  EXPECT_DOUBLE_EQ(again.zipf_s, s.zipf_s);
  EXPECT_EQ(again.hot_keys, s.hot_keys);
  EXPECT_EQ(again.request_waves, s.request_waves);
  EXPECT_EQ(again.cache, s.cache);
  EXPECT_EQ(again.cache_size, s.cache_size);
}

TEST(HotkeySpec, DefaultsEmitNoNewKeys) {
  ScenarioSpec s = parse_ok(std::string(kBase) + "algorithm = multicast\n");
  std::string text = s.to_string();
  EXPECT_EQ(text.find("traffic"), std::string::npos);
  EXPECT_EQ(text.find("cache"), std::string::npos);
  EXPECT_EQ(text.find("request_waves"), std::string::npos);
}

TEST(HotkeySpec, RejectsOrphanedAndInvalidKeys) {
  expect_reject(std::string(kBase) + "algorithm = multicast\nzipf_s = 1.2\n",
                "zipf_s without");
  expect_reject(std::string(kBase) + "algorithm = multicast\nhot_keys = 4\n",
                "hot_keys without");
  expect_reject(std::string(kBase) + "algorithm = multicast\ncache_size = 8\n",
                "cache_size without");
  expect_reject(std::string(kBase) + "algorithm = multicast\ntraffic = pareto\n",
                "traffic must be");
  expect_reject(std::string(kBase) + "algorithm = multicast\ncache = fifo\n",
                "cache must be");
  expect_reject(std::string(kBase) +
                    "algorithm = multicast\ntraffic = zipf\nzipf_s = 99\n",
                "zipf_s");
}

// --- traffic stream ------------------------------------------------------

TEST(HotkeyTraffic, UniformReproducesModuloStream) {
  ScenarioSpec s = parse_ok(std::string(kBase) + "algorithm = multicast\n");
  TrafficStream stream(s, 8, s.seed);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(stream.group_for(i), i % 8);
}

TEST(HotkeyTraffic, ZipfIsSeededDeterministicAndSkewed) {
  ScenarioSpec s = parse_ok(std::string(kBase) +
                            "algorithm = multicast\ntraffic = zipf\n"
                            "zipf_s = 1.6\nhot_keys = 8\n");
  TrafficStream a(s, 64, s.seed), b(s, 64, s.seed), other(s, 64, s.seed + 1);
  uint64_t count[64] = {0};
  bool any_diff = false;
  for (uint64_t i = 0; i < 4000; ++i) {
    uint64_t g = a.group_for(i);
    EXPECT_EQ(g, b.group_for(i));  // same seed => same stream
    any_diff |= g != other.group_for(i);
    ASSERT_LT(g, 8u);  // zipf draws land inside the hot-key universe
    ++count[g];
  }
  EXPECT_TRUE(any_diff);  // different seed => different stream
  // At s = 1.6 the hottest key takes far more than the uniform 1/8 share.
  uint64_t top = *std::max_element(count, count + 8);
  EXPECT_GT(top, 4000u / 4);
}

// --- CombiningCache unit contract ----------------------------------------

TEST(CombiningCache, LruBoundIsEnforcedAndEvictsLeastRecent) {
  CombiningCache cache(/*states=*/4, /*capacity=*/3);
  for (uint64_t g = 0; g < 5; ++g) cache.admit_payload(1, g, Val{g, 0});
  EXPECT_EQ(cache.entries_at(1), 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // Groups 0 and 1 were the least recent — gone; 2..4 still served.
  EXPECT_EQ(cache.lookup_payload(1, 0), nullptr);
  EXPECT_EQ(cache.lookup_payload(1, 1), nullptr);
  for (uint64_t g = 2; g < 5; ++g) {
    const Val* v = cache.lookup_payload(1, g);
    ASSERT_NE(v, nullptr) << g;
    EXPECT_EQ((*v)[0], g);
  }
  // A lookup refreshes recency: touch 2, admit two more, 2 survives.
  cache.lookup_payload(1, 2);
  cache.admit_payload(1, 10, Val{10, 0});
  cache.admit_payload(1, 11, Val{11, 0});
  EXPECT_EQ(cache.entries_at(1), 3u);
  EXPECT_NE(cache.lookup_payload(1, 2), nullptr);
  EXPECT_EQ(cache.lookup_payload(1, 3), nullptr);
  // Other states are independent.
  EXPECT_EQ(cache.entries_at(0), 0u);
}

TEST(CombiningCache, AbsorberMassFlushesExactlyOnce) {
  CombiningCache cache(2, 4);
  CombiningCache::Flushed ev;
  EXPECT_FALSE(cache.absorb(0, 7, Val{1, 0}, agg::sum));  // nothing armed yet
  EXPECT_FALSE(cache.arm_absorber(0, 7, &ev));            // arming evicts nothing
  EXPECT_TRUE(cache.absorb(0, 7, Val{10, 0}, agg::sum));
  EXPECT_TRUE(cache.absorb(0, 7, Val{5, 0}, agg::sum));
  EXPECT_FALSE(cache.absorb(0, 8, Val{1, 0}, agg::sum));  // other group: miss
  std::vector<CombiningCache::Flushed> out;
  cache.flush_absorbers(0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].group, 7u);
  EXPECT_EQ(out[0].val[0], 15u);  // 10 + 5, combined en route
  out.clear();
  cache.flush_absorbers(0, &out);  // second flush: nothing left
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(cache.absorb(0, 7, Val{1, 0}, agg::sum));  // disarmed
}

// --- scenario-level properties -------------------------------------------

TEST(HotkeyScenario, CacheOffExplicitDefaultsAreByteIdentical) {
  std::string plain = std::string(kBase) + "algorithm = multicast\n";
  std::string expl = plain +
                     "traffic = uniform\nrequest_waves = 1\ncache = off\n";
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome a = run_scenario(parse_ok(plain), opts);
  ScenarioOutcome b = run_scenario(parse_ok(expl), opts);
  EXPECT_EQ(a.json, b.json);
}

TEST(HotkeyScenario, IdleCacheLeavesUniformTrafficUnchanged) {
  std::string off = std::string(kBase) + "algorithm = multicast\n";
  std::string on = off + "cache = lru\ncache_size = 16\n";
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome a = run_scenario(parse_ok(off), opts);
  ScenarioOutcome b = run_scenario(parse_ok(on), opts);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  // One uniform wave never hits (the cache only warms during the spread),
  // so rounds and messages are untouched by an enabled-but-idle cache.
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(json_counter(b.json, "cache_hits"), 0u);
}

TEST(HotkeyScenario, WarmWavesHitAndNeverLoseDeliveries) {
  std::string zipf =
      std::string(kBase) +
      "algorithm = multicast\ntraffic = zipf\nzipf_s = 1.4\nhot_keys = 8\n"
      "request_waves = 3\n";
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome off = run_scenario(parse_ok(zipf), opts);
  ScenarioOutcome on =
      run_scenario(parse_ok(zipf + "cache = lru\ncache_size = 16\n"), opts);
  EXPECT_TRUE(off.ok) << off.verdict;
  EXPECT_TRUE(on.ok) << on.verdict;
  EXPECT_GT(json_counter(on.json, "cache_hits"), 0u);
  // Cache-served members still count delivered — completeness is preserved.
  EXPECT_EQ(json_counter(on.json, "delivered"), json_counter(off.json, "delivered"));
  EXPECT_LE(on.messages, off.messages);
  // Hits cut the climbs and spreads the cache short-circuits.
  EXPECT_LT(json_counter(on.json, "routed"), json_counter(off.json, "routed"));
}

TEST(HotkeyScenario, AggregatesStayExactWithAbsorbers) {
  std::string spec =
      std::string(kBase) +
      "algorithm = aggregate\ntraffic = zipf\nzipf_s = 1.2\nhot_keys = 6\n"
      "request_waves = 3\ncache = lru\ncache_size = 8\n";
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome out = run_scenario(parse_ok(spec), opts);
  EXPECT_TRUE(out.ok) << out.verdict;  // exactness survives absorb/flush
  EXPECT_GT(json_counter(out.json, "cache_hits"), 0u);
}

TEST(HotkeyScenario, MultiAggregationServesAndStaysExact) {
  std::string spec =
      std::string(kBase) +
      "algorithm = multi_aggregation\ntraffic = zipf\nzipf_s = 1.4\n"
      "hot_keys = 8\nrequest_waves = 3\ncache = lru\ncache_size = 16\n";
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome out = run_scenario(parse_ok(spec), opts);
  EXPECT_TRUE(out.ok) << out.verdict;
  EXPECT_GT(json_counter(out.json, "cache_hits"), 0u);
}

// The fresh-key control: request waves whose group ids never repeat can never
// hit, so an LRU cache only admits and evicts. Admissions and lookups send no
// messages, so rounds, messages and overlay hops must equal the uncached
// run's exactly, and every request must still get its own payload. (The
// scenario adapters' uniform traffic repeats groups across waves, so this
// control runs on the primitives directly.)
TEST(HotkeyPrimitive, FreshKeysNeverHitAndLeaveRoutingUnchanged) {
  constexpr NodeId kNodes = 64;
  constexpr uint32_t kWaves = 6;
  constexpr uint64_t kRequests = 256;  // per wave, each a new group
  struct Run {
    uint64_t rounds = 0, messages = 0, routed = 0, hits = 0, evictions = 0;
  };
  auto run = [&](uint32_t cache_size) {
    Network net(NetConfig{.n = kNodes, .capacity_factor = 16, .seed = 45});
    Shared shared(kNodes, 45, OverlayKind::kButterfly);
    std::unique_ptr<CombiningCache> cache;
    if (cache_size)
      cache = std::make_unique<CombiningCache>(shared.topo().node_count(), cache_size);
    Rng rng(0x40719e7);
    Run r;
    for (uint32_t w = 0; w < kWaves; ++w) {
      std::vector<MulticastMembership> members;
      std::vector<MulticastSend> sends;
      std::vector<uint32_t> per_member(kNodes, 0);
      for (uint64_t i = 0; i < kRequests; ++i) {
        const NodeId member = static_cast<NodeId>(rng.next_below(kNodes));
        const uint64_t group = 0x100000 + w * kRequests + i;
        members.push_back({member, group});
        sends.push_back({group, static_cast<NodeId>(group % kNodes), Val{0xca11 + group, 0}});
        ++per_member[member];
      }
      const uint32_t ell_hat =
          std::max<uint32_t>(1, *std::max_element(per_member.begin(), per_member.end()));
      MulticastSetupResult setup = setup_multicast_trees(
          shared, net, members, /*ell1_hat=*/0, 2ull * w + 1, cache.get());
      MulticastResult res = run_multicast(shared, net, setup.trees, sends, ell_hat,
                                          2ull * w + 2, cache.get());
      r.routed += setup.route.packets_moved + res.route.packets_moved;
      for (const MulticastMembership& mm : members) {
        const auto& got = res.received[mm.member];
        EXPECT_TRUE(std::any_of(got.begin(), got.end(), [&](const AggPacket& p) {
          return p.group == mm.group && p.val[0] == 0xca11 + mm.group;
        })) << "wave " << w << " group " << mm.group;
      }
    }
    r.rounds = net.stats().rounds;
    r.messages = net.stats().messages_sent;
    if (cache) {
      r.hits = cache->stats().hits;
      r.evictions = cache->stats().evictions;
    }
    return r;
  };
  const Run off = run(0);
  const Run lru = run(2);
  EXPECT_EQ(lru.rounds, off.rounds);
  EXPECT_EQ(lru.messages, off.messages);
  EXPECT_EQ(lru.routed, off.routed);
  EXPECT_GT(off.routed, 0u);
  EXPECT_EQ(lru.hits, 0u);
  EXPECT_GT(lru.evictions, 0u);
}

// The acceptance check: hits/evictions (and therefore the whole JSON) are
// bit-identical whether the cells run one at a time or four at once on the
// cell runner, fault-free and under faults.
TEST(HotkeyScenario, CacheIsThreadCountInvariant) {
  const std::string texts[] = {
      std::string(kBase) +
          "algorithm = multicast\ntraffic = zipf\nzipf_s = 1.4\nhot_keys = 8\n"
          "request_waves = 3\ncache = lru\ncache_size = 4\n",
      std::string(kBase) +
          "algorithm = aggregate\ntraffic = zipf\nzipf_s = 1.2\nhot_keys = 6\n"
          "request_waves = 2\ncache = lru\ncache_size = 8\n",
      std::string(kBase) +
          "algorithm = multi_aggregation\ntraffic = zipf\nzipf_s = 1.4\n"
          "hot_keys = 8\nrequest_waves = 2\ncache = lru\ncache_size = 16\n",
      std::string(kBase) +
          "algorithm = multicast\ntraffic = zipf\nzipf_s = 1.6\nhot_keys = 4\n"
          "request_waves = 3\ncache = lru\ncache_size = 2\n"
          "round_limit = 2000\ndrop_rate = 0.02\n",
  };
  std::vector<ScenarioSpec> specs;
  for (const std::string& text : texts) specs.push_back(parse_ok(text));
  RunOptions opts;
  opts.timing = false;
  std::vector<ScenarioOutcome> one = run_cells(specs, opts, 1);
  std::vector<ScenarioOutcome> four = run_cells(specs, opts, 4);
  ASSERT_EQ(one.size(), specs.size());
  ASSERT_EQ(four.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) EXPECT_EQ(one[i].json, four[i].json) << texts[i];
}

// Fault honesty: under drops or byzantine corruption a cached payload may be
// stale garbage, but the adapter verifies payload *content* — the verdict is
// "ok" exactly when every member of every wave got its true payload, so a
// corrupted cached value can only surface as degraded, never silently served.
TEST(HotkeyScenario, FaultsDegradeHonestlyNeverServeSilently) {
  const std::string specs[] = {
      std::string(kBase) +
          "algorithm = multicast\ntraffic = zipf\nzipf_s = 1.4\nhot_keys = 8\n"
          "request_waves = 3\ncache = lru\ncache_size = 16\n"
          "round_limit = 2000\nbyzantine_rate = 0.05\n",
      std::string(kBase) +
          "algorithm = multicast\ntraffic = zipf\nzipf_s = 1.4\nhot_keys = 8\n"
          "request_waves = 3\ncache = lru\ncache_size = 16\n"
          "round_limit = 2000\ndrop_rate = 0.05\n",
  };
  for (const std::string& text : specs) {
    RunOptions opts;
    opts.timing = false;
    ScenarioOutcome out = run_scenario(parse_ok(text), opts);
    ASSERT_TRUE(out.ran);
    if (out.verdict == "round_limit") continue;  // jammed drain: also honest
    uint64_t delivered = json_counter(out.json, "delivered");
    uint64_t expected = 3ull * 192;  // waves * n members
    if (out.ok) {
      EXPECT_EQ(delivered, expected) << text;
    } else {
      EXPECT_NE(out.verdict.find("degraded:"), std::string::npos) << out.verdict;
      EXPECT_LT(delivered, expected) << text;
    }
  }
}
