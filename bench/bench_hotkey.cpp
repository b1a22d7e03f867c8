// Experiment HOTKEY: the en-route combining cache under skewed hot-key
// traffic — a CDN-style workload of repeated multicast request waves.
//
// Each wave draws `kRequests` requests (member node, group key); the group
// key comes from a seeded Zipf sampler over a hot-key universe (the skew
// axis) or, for the uniform control, from a wave-unique fresh-id stream that
// never repeats a group. Every wave runs the full tree setup + spread
// (Theorems 2.4/2.5) through the real Shared/Network stack and verifies all
// deliveries by payload content. With `cache = lru` the spread warms the
// per-routing-state payload caches, so the next wave's setup descents for
// hot groups terminate at level-0 cache hits: the climb, the source->root
// handoff, and the root-down spread all vanish for cache-served groups, and
// only the uncacheable per-request injection + leaf delivery (plus the fixed
// termination-token floods) remain.
//
// Two message columns per row:
//  * `messages` — every network send, including the per-request injection and
//    leaf-delivery legs and the termination-token floods. Those are the
//    workload's fixed I/O: no cache can remove them, and at CDN request rates
//    they dominate the total.
//  * `routed` — overlay packet hops inside route_down/route_up
//    (RouteStats::packets_moved): the combining climbs and spreading descents
//    the cache exists to short-circuit. This is the headline axis.
//
// Expected shape, verified by the rows and pinned by the bench_ledger_hotkey
// ctest (every counter of every row exact against BENCH_hotkey.json):
//  * uniform rows are bit-identical cache-on vs cache-off (fresh keys never
//    hit, and admissions/lookups send no messages);
//  * at zipf_s >= 1.2 the cached rows cut routed messages by >= 2x (and trim
//    the total) once the cache holds a column's share of the hot set;
//  * a deliberately tiny cache (the cache_size axis) shows eviction pressure
//    eating the hit rate — the knee the sweep grid charts.
//
// Emits BENCH_hotkey.json: one row per (traffic, cache_size) with
// rounds/messages/routed plus hits/evictions columns, all counters.
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "overlay/cache.hpp"
#include "overlay/overlay.hpp"
#include "primitives/multicast.hpp"
#include "scenario/traffic.hpp"

using namespace ncc;
using namespace ncc::bench;

namespace {

constexpr NodeId kNodes = 64;
constexpr uint32_t kWaves = 6;        // 1 cold + warm rest
constexpr uint64_t kRequests = 2048;  // per wave
constexpr uint32_t kHotKeys = 8;    // Zipf universe

struct Row {
  uint64_t rounds = 0;
  uint64_t messages = 0;
  uint64_t routed = 0;  // overlay packet hops (RouteStats::packets_moved)
  uint64_t hits = 0;
  uint64_t evictions = 0;
};

/// `zipf_s` < 0 selects the uniform control: wave-unique fresh group ids, so
/// nothing can ever hit. `cache_size` 0 = cache off.
Row run_cdn(double zipf_s, uint32_t cache_size) {
  Network net = [&] {
    NetConfig cfg;
    cfg.n = kNodes;
    cfg.seed = 45;
    cfg.capacity_factor = 16;
    return Network(cfg);
  }();
  Shared shared(kNodes, 45, OverlayKind::kButterfly);
  std::unique_ptr<CombiningCache> cache;
  if (cache_size)
    cache = std::make_unique<CombiningCache>(shared.topo().node_count(), cache_size);

  // The request stream is identical across the cache axis: one Rng drives
  // member + key draws, so rows differ only in routing behaviour.
  scenario::ZipfSampler zipf(kHotKeys, zipf_s < 0 ? 1.0 : zipf_s);
  Rng req_rng(0x40719e7);
  auto payload_of = [](uint64_t group) { return Val{0xca11 + group, 0}; };

  uint64_t routed = 0;
  for (uint32_t w = 0; w < kWaves; ++w) {
    std::vector<MulticastMembership> members;
    std::unordered_map<uint64_t, uint32_t> group_seen;  // group -> request count
    std::vector<uint64_t> wave_groups;                  // first-seen order
    std::vector<uint32_t> per_member(kNodes, 0);
    for (uint64_t i = 0; i < kRequests; ++i) {
      NodeId member = static_cast<NodeId>(req_rng.next_below(kNodes));
      uint64_t group = zipf_s < 0
                           ? 0x100000 + uint64_t{w} * kRequests + i  // fresh
                           : 0x1000 + zipf.draw(req_rng);
      members.push_back({member, group});
      ++per_member[member];
      if (group_seen[group]++ == 0) wave_groups.push_back(group);
    }
    uint32_t ell_hat = 1;
    for (NodeId u = 0; u < kNodes; ++u)
      ell_hat = std::max(ell_hat, per_member[u]);

    MulticastSetupResult setup =
        setup_multicast_trees(shared, net, members, /*ell1_hat=*/0, 2ull * w + 1, cache.get());
    std::vector<MulticastSend> sends;
    for (uint64_t g : wave_groups)
      sends.push_back({g, static_cast<NodeId>(g % kNodes), payload_of(g)});
    MulticastResult res = run_multicast(shared, net, setup.trees, sends, ell_hat,
                                        2ull * w + 2, cache.get());
    routed += setup.route.packets_moved + res.route.packets_moved;

    // Verify every request by payload content — cache-served deliveries
    // included (a wrong cached value would fail here).
    std::vector<std::unordered_map<uint64_t, Val>> got(kNodes);
    for (NodeId u = 0; u < kNodes; ++u)
      for (const AggPacket& p : res.received[u]) got[u].emplace(p.group, p.val);
    for (const MulticastMembership& mm : members) {
      auto it = got[mm.member].find(mm.group);
      NCC_ASSERT_MSG(it != got[mm.member].end(), "hotkey wave missed a delivery");
      NCC_ASSERT_MSG(it->second[0] == payload_of(mm.group)[0],
                     "hotkey wave delivered a wrong payload");
    }
  }
  Row r{net.stats().rounds, net.stats().messages_sent, routed, 0, 0};
  if (cache) {
    r.hits = cache->stats().hits;
    r.evictions = cache->stats().evictions;
  }
  return r;
}

std::string cache_extra(double zipf_s, uint32_t cache_size, const Row& r) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                ", \"zipf_s\": %.2f, \"cache_size\": %u, \"routed\": %llu, "
                "\"hits\": %llu, \"evictions\": %llu, \"waves\": %u",
                zipf_s < 0 ? 0.0 : zipf_s, cache_size,
                static_cast<unsigned long long>(r.routed),
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.evictions), kWaves);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOpts opts = parse_opts(argc, argv);
  std::printf("== HOTKEY: en-route combining cache vs Zipf request skew "
              "(%u-node butterfly, %u waves x %llu requests, %u hot keys) ==\n",
              kNodes, kWaves, static_cast<unsigned long long>(kRequests),
              kHotKeys);
  std::printf("\n");

  struct Traffic {
    const char* name;
    double zipf_s;  // < 0 = uniform fresh-id control
  } traffics[] = {{"uniform", -1.0}, {"zipf0.8", 0.8}, {"zipf1.2", 1.2},
                  {"zipf1.6", 1.6}};
  const uint32_t cache_sizes[] = {0, 2, 8, 64};  // 0 = off

  BenchJson json;
  Table t({"traffic", "cache", "rounds", "messages", "routed", "hits",
           "evictions", "routed vs off"});
  for (const Traffic& tr : traffics) {
    Row off{};
    for (uint32_t cs : cache_sizes) {
      Row r = run_cdn(tr.zipf_s, cs);
      if (cs == 0) off = r;
      std::string cache_name = cs == 0 ? "off" : "lru" + std::to_string(cs);
      t.add_row({tr.name, cache_name, Table::num(r.rounds),
                 Table::num(r.messages), Table::num(r.routed),
                 Table::num(r.hits), Table::num(r.evictions),
                 Table::num(static_cast<double>(r.routed) / off.routed, 2)});
      json.add(std::string("cdn/") + tr.name + "/" + cache_name, kNodes, r.rounds,
               r.messages, cache_extra(tr.zipf_s, cs, r));
    }
  }
  t.print("== hot-key CDN waves ==");
  json.save(opts.json.empty() ? "BENCH_hotkey.json" : opts.json);
  return 0;
}
