#include "scenario/registry.hpp"

#include <algorithm>
#include <memory>

#include "baselines/sequential.hpp"
#include "core/bfs.hpp"
#include "core/broadcast_trees.hpp"
#include "core/coloring.hpp"
#include "core/components.hpp"
#include "core/gossip.hpp"
#include "core/matching.hpp"
#include "core/mis.hpp"
#include "core/mst.hpp"
#include "core/orientation_algo.hpp"
#include "graph/properties.hpp"
#include "overlay/cache.hpp"
#include "primitives/aggregation.hpp"
#include "primitives/context.hpp"
#include "primitives/multi_aggregation.hpp"
#include "primitives/multicast.hpp"
#include "scenario/traffic.hpp"

namespace ncc::scenario {

namespace {

ScenarioRunResult verdict_ok() { return {true, "ok", {}, {}}; }

ScenarioRunResult degraded(const std::string& why) { return {false, "degraded:" + why, {}, {}}; }

/// Orientation + broadcast-tree setup shared by the Section 5 algorithms.
struct TreeSetup {
  Shared shared;
  OrientationRunResult orient;
  BroadcastTrees bt;

  TreeSetup(Network& net, const Graph& g, const ScenarioSpec& spec)
      : shared(g.n(), spec.seed, spec.overlay),
        orient(run_orientation(shared, net, g)),
        bt(build_broadcast_trees(shared, net, g, orient.orientation, spec.seed)) {}

  uint64_t setup_rounds() const { return orient.rounds + bt.rounds; }
};

/// BFS heal recovery (ROADMAP): a partition window that overlaps the
/// broadcast-tree setup eats membership packets the paper's protocol never
/// re-sends, so the trees come up incomplete and BFS either jams on lost
/// termination tokens or computes wrong distances. The partition schedule is
/// declared in the spec — operator-known maintenance windows — so the BFS
/// adapter holds its setup while a window is open or about to open (within a
/// few barriers' worth of rounds) and then (re-)sends the setup tokens on
/// the healed network, matching broadcast's re-adoption recovery (which
/// retries uninformed nodes every round). Windows far in the future are NOT
/// waited out — a run that would finish before they open must not regress
/// to idling through them; if one opens mid-run, the router's stall
/// heartbeat keeps the drain alive and the verdict degrades honestly.
/// Rounds spent waiting are real simulated rounds, counted toward the
/// round limit and reported as `heal_wait_rounds`.
uint64_t await_partition_heal(Network& net, const ScenarioSpec& spec) {
  if (spec.faults.partition_windows.empty()) return 0;
  obs::Span span(net, "setup.heal_wait");
  const uint64_t grace = 8ull * cap_log(net.n());  // a few barriers of lookahead
  uint64_t waited = 0;
  bool again = true;
  while (again) {
    again = false;
    for (const RoundWindow& w : spec.faults.partition_windows) {
      if (w.lo <= net.rounds() + grace && net.rounds() < w.hi) {
        while (net.rounds() < w.hi) {
          net.end_round();
          ++waited;
        }
        again = true;  // closing one window may bring the next into range
      }
    }
  }
  return waited;
}

ScenarioRunResult run_bfs_scenario(Network& net, const Graph& g,
                                   const ScenarioSpec& spec) {
  uint64_t heal_wait = await_partition_heal(net, spec);
  TreeSetup s(net, g, spec);
  BfsResult bfs = run_bfs(s.shared, net, g, s.bt, /*source=*/0, spec.seed);
  std::vector<uint32_t> truth = bfs_distances(g, 0);
  uint64_t wrong = 0, unreachable = 0;
  for (NodeId u = 0; u < g.n(); ++u) {
    if (bfs.dist[u] != truth[u]) ++wrong;
    if (bfs.dist[u] == kUnreachable) ++unreachable;
  }
  ScenarioRunResult r = wrong == 0
                            ? verdict_ok()
                            : degraded(std::to_string(wrong) + " wrong distances");
  r.counters = {{"phases", bfs.phases},
                {"algo_rounds", bfs.rounds},
                {"setup_rounds", s.setup_rounds()},
                {"heal_wait_rounds", heal_wait},
                {"unreachable", unreachable}};
  return r;
}

ScenarioRunResult run_mis_scenario(Network& net, const Graph& g,
                                   const ScenarioSpec& spec) {
  TreeSetup s(net, g, spec);
  MisResult mis = run_mis(s.shared, net, g, s.bt, spec.seed);
  uint64_t size = 0;
  for (NodeId u = 0; u < g.n(); ++u) size += mis.in_mis[u];
  ScenarioRunResult r;
  if (!is_independent_set(g, mis.in_mis)) {
    r = degraded("not independent");
  } else if (!is_maximal_independent_set(g, mis.in_mis)) {
    r = degraded("not maximal");
  } else {
    r = verdict_ok();
  }
  r.counters = {{"phases", mis.phases},
                {"algo_rounds", mis.rounds},
                {"setup_rounds", s.setup_rounds()},
                {"mis_size", size}};
  return r;
}

ScenarioRunResult run_matching_scenario(Network& net, const Graph& g,
                                        const ScenarioSpec& spec) {
  TreeSetup s(net, g, spec);
  MatchingResult m = run_matching(s.shared, net, g, s.bt, spec.seed);
  uint64_t matched = 0;
  for (NodeId u = 0; u < g.n(); ++u) matched += m.mate[u] != kUnmatched;
  ScenarioRunResult r;
  if (!is_matching(g, m.mate)) {
    r = degraded("not a matching");
  } else if (!is_maximal_matching(g, m.mate)) {
    r = degraded("not maximal");
  } else {
    r = verdict_ok();
  }
  r.counters = {{"phases", m.phases},
                {"algo_rounds", m.rounds},
                {"setup_rounds", s.setup_rounds()},
                {"matched_nodes", matched}};
  return r;
}

ScenarioRunResult run_coloring_scenario(Network& net, const Graph& g,
                                        const ScenarioSpec& spec) {
  Shared shared(g.n(), spec.seed, spec.overlay);
  OrientationRunResult orient = run_orientation(shared, net, g);
  ColoringResult c = run_coloring(shared, net, g, orient, {}, spec.seed);
  uint32_t used = 0;
  for (NodeId u = 0; u < g.n(); ++u) used = std::max(used, c.color[u] + 1);
  ScenarioRunResult r = is_proper_coloring(g, c.color)
                            ? verdict_ok()
                            : degraded("not a proper coloring");
  r.counters = {{"phases", c.phases},
                {"algo_rounds", c.rounds},
                {"setup_rounds", orient.rounds},
                {"palette_size", c.palette_size},
                {"colors_used", used}};
  return r;
}

ScenarioRunResult run_mst_scenario(Network& net, const Graph& g,
                                   const ScenarioSpec& spec) {
  Shared shared(g.n(), spec.seed, spec.overlay);
  MstResult mst = run_mst(shared, net, g, {}, spec.seed);
  KruskalResult truth = kruskal_msf(g);
  ScenarioRunResult r;
  if (!is_spanning_forest(g, mst.edges)) {
    r = degraded("not a spanning forest");
  } else if (mst.total_weight != truth.total_weight) {
    r = degraded("weight " + std::to_string(mst.total_weight) + " != optimal " +
                 std::to_string(truth.total_weight));
  } else {
    r = verdict_ok();
  }
  r.counters = {{"phases", mst.phases},
                {"algo_rounds", mst.rounds},
                {"mst_edges", mst.edges.size()},
                {"mst_weight", mst.total_weight}};
  return r;
}

ScenarioRunResult run_components_scenario(Network& net, const Graph& g,
                                          const ScenarioSpec& spec) {
  Shared shared(g.n(), spec.seed, spec.overlay);
  ComponentsResult cc = run_components(shared, net, g, spec.seed);
  uint64_t wrong = 0;
  for (NodeId u = 0; u < g.n(); ++u)
    for (NodeId v : g.neighbors(u))
      if (u < v && cc.leader[u] != cc.leader[v]) ++wrong;
  uint32_t truth = component_count(g);
  ScenarioRunResult r;
  if (wrong > 0) {
    r = degraded(std::to_string(wrong) + " edges cross labels");
  } else if (cc.count != truth) {
    r = degraded("component count " + std::to_string(cc.count) + " != " +
                 std::to_string(truth));
  } else {
    r = verdict_ok();
  }
  r.counters = {{"phases", cc.phases},
                {"algo_rounds", cc.rounds},
                {"components", cc.count},
                {"forest_edges", cc.forest.size()}};
  return r;
}

ScenarioRunResult run_gossip_scenario(Network& net, const Graph&,
                                      const ScenarioSpec&) {
  GossipResult res = run_gossip(net);
  ScenarioRunResult r = res.complete ? verdict_ok() : degraded("tokens lost");
  r.counters = {{"algo_rounds", res.rounds}};
  return r;
}

ScenarioRunResult run_broadcast_scenario(Network& net, const Graph&,
                                         const ScenarioSpec&) {
  BroadcastResult res = run_broadcast(net);
  ScenarioRunResult r;
  if (!res.complete) {
    r = degraded("nodes uninformed");
  } else if (res.corrupted_tokens > 0) {
    // The honest verdict under byzantine payload corruption: everyone was
    // informed, but not everyone heard the truth.
    r = degraded(std::to_string(res.corrupted_tokens) + " corrupted tokens");
  } else {
    r = verdict_ok();
  }
  r.counters = {{"algo_rounds", res.rounds},
                {"corrupted_tokens", res.corrupted_tokens}};
  return r;
}

ScenarioRunResult run_orientation_scenario(Network& net, const Graph& g,
                                           const ScenarioSpec& spec) {
  Shared shared(g.n(), spec.seed, spec.overlay);
  OrientationRunResult o = run_orientation(shared, net, g);
  ScenarioRunResult r = o.orientation.complete()
                            ? verdict_ok()
                            : degraded(std::to_string(o.orientation.unoriented_count()) +
                                       " edges unoriented");
  r.counters = {{"phases", o.phases},
                {"algo_rounds", o.rounds},
                {"max_outdegree", o.orientation.max_outdegree()},
                {"d_star", o.d_star}};
  return r;
}

/// Combining-cache plumbing shared by the primitives microbench adapters:
/// the cache exists only when the spec asks for it, the counters and the
/// per-wave series are appended only then, so default-spec JSON is unchanged.
std::unique_ptr<CombiningCache> make_cache(const Shared& shared,
                                           const ScenarioSpec& spec) {
  if (spec.cache != ScenarioSpec::Cache::kLru) return nullptr;
  return std::make_unique<CombiningCache>(shared.topo().node_count(),
                                          spec.cache_size);
}

void sample_cache(ScenarioRunResult& r, const Network& net,
                  const CombiningCache* cache) {
  if (!cache) return;
  const CombiningCache::Stats& cs = cache->stats();
  r.cache_series.push_back({net.rounds(), cs.hits, cs.hits + cs.misses});
}

void append_cache_counters(ScenarioRunResult& r, const ScenarioSpec& spec,
                           const CombiningCache* cache) {
  if (spec.request_waves != 1)
    r.counters.push_back({"waves", spec.request_waves});
  if (!cache) return;
  const CombiningCache::Stats& cs = cache->stats();
  r.counters.push_back({"cache_hits", cs.hits});
  r.counters.push_back({"cache_misses", cs.misses});
  r.counters.push_back({"cache_evictions", cs.evictions});
}

/// Primitives microbench: every node contributes 1 to a traffic-drawn group
/// (u mod G under uniform traffic); the per-group sums must come back exact
/// (SUM aggregation, Theorem 2.3). With `cache = lru` the Combining Phase
/// runs with absorbers — exactness must survive them.
ScenarioRunResult run_aggregate_scenario(Network& net, const Graph& g,
                                         const ScenarioSpec& spec) {
  const NodeId n = g.n();
  const uint64_t groups = std::min<uint64_t>(n, 16);
  Shared shared(n, spec.seed, spec.overlay);
  std::unique_ptr<CombiningCache> cache = make_cache(shared, spec);
  TrafficStream stream(spec, groups, spec.seed);
  ScenarioRunResult r;
  uint64_t algo_rounds = 0, received = 0, exact = 0, misrouted = 0, checks = 0;
  uint64_t routed = 0;
  for (uint32_t w = 0; w < spec.request_waves; ++w) {
    AggregationProblem prob;
    prob.combine = agg::sum;
    prob.target = [n](uint64_t grp) { return static_cast<NodeId>(grp % n); };
    prob.ell1_hat = 1;  // one item per node per wave
    prob.ell2_hat = 1;
    std::vector<uint64_t> count(groups, 0);
    for (NodeId u = 0; u < n; ++u) {
      uint64_t grp = stream.group_for(u);
      ++count[grp];
      prob.items.push_back({u, grp, Val{1, 0}});
    }
    AggregationResult res = run_aggregation(shared, net, prob, spec.seed + w,
                                            cache.get());
    for (uint64_t grp = 0; grp < groups; ++grp) {
      const Val* pv = res.at_target.find(grp);
      uint64_t got = pv ? (*pv)[0] : 0;
      received += got;
      exact += got == count[grp];
    }
    algo_rounds += res.rounds;
    misrouted += res.route.misrouted;
    routed += res.route.packets_moved;
    checks += groups;
    sample_cache(r, net, cache.get());
  }
  ScenarioRunResult v = exact == checks
                            ? verdict_ok()
                            : degraded(std::to_string(checks - exact) +
                                       " of " + std::to_string(checks) +
                                       " aggregates inexact");
  r.ok = v.ok;
  r.verdict = std::move(v.verdict);
  // misrouted distinguishes a router regression from ordinary fault loss: on
  // a fault-free spec (expect ok) a nonzero value fails CI with a diagnostic.
  r.counters = {{"algo_rounds", algo_rounds},
                {"groups", groups},
                {"values_received", received},
                {"misrouted", misrouted},
                {"routed", routed}};
  append_cache_counters(r, spec, cache.get());
  return r;
}

/// One request wave of the multicast adapters: every node draws its group
/// from the traffic stream, joins it, and the wave's trees are set up with
/// l1_hat = 1 (each node injects its one membership). Node g sources group
/// g's payload `payload_base + g`.
struct MulticastWave {
  std::vector<uint64_t> grp_of;  // node -> its group this wave
  MulticastSetupResult setup;
  std::vector<MulticastSend> sends;
};

MulticastWave setup_wave(const Shared& shared, Network& net, TrafficStream& stream,
                         uint64_t groups, uint64_t payload_base, uint64_t seed,
                         CombiningCache* cache) {
  const NodeId n = net.n();
  MulticastWave wave;
  wave.grp_of.resize(n);
  std::vector<MulticastMembership> members;
  for (NodeId u = 0; u < n; ++u) {
    wave.grp_of[u] = stream.group_for(u);
    members.push_back({u, wave.grp_of[u]});
  }
  wave.setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/1, seed, cache);
  for (uint64_t grp = 0; grp < groups; ++grp)
    wave.sends.push_back({grp, static_cast<NodeId>(grp), Val{payload_base + grp, 0}});
  return wave;
}

/// Primitives microbench: node g multicasts a payload to group g's members
/// (u mod G == g under uniform traffic; Zipf-skewed under `traffic = zipf`);
/// every member must receive its group's payload, and the payload *content*
/// is verified — a corrupted cached payload served on a hit counts as
/// missing, never as silently delivered. With `request_waves > 1` the same
/// group-keyed payloads are re-requested wave after wave, so a warm
/// `cache = lru` serves repeat traffic from en-route hits. `routed` counts
/// the overlay packet hops of setup and spread (RouteStats::packets_moved),
/// the traffic a warm cache cuts.
ScenarioRunResult run_multicast_scenario(Network& net, const Graph& g,
                                         const ScenarioSpec& spec) {
  const NodeId n = g.n();
  const uint64_t groups = std::min<uint64_t>(n, 8);
  Shared shared(n, spec.seed, spec.overlay);
  std::unique_ptr<CombiningCache> cache = make_cache(shared, spec);
  TrafficStream stream(spec, groups, spec.seed);
  ScenarioRunResult r;
  uint64_t setup_rounds = 0, algo_rounds = 0, routed = 0;
  uint64_t missing = 0, delivered = 0, misrouted = 0, lost_groups = 0;
  for (uint32_t w = 0; w < spec.request_waves; ++w) {
    MulticastWave wave =
        setup_wave(shared, net, stream, groups, 0x900d, spec.seed + w, cache.get());
    MulticastResult res = run_multicast(shared, net, wave.setup.trees, wave.sends,
                                        /*ell_hat=*/1, spec.seed + w, cache.get());
    for (NodeId u = 0; u < n; ++u) {
      bool got = false;
      for (const AggPacket& p : res.received[u])
        if (p.group == wave.grp_of[u] && p.val[0] == 0x900d + wave.grp_of[u]) got = true;
      if (got) {
        ++delivered;
      } else {
        ++missing;
      }
    }
    setup_rounds += wave.setup.rounds;
    algo_rounds += res.rounds;
    routed += wave.setup.route.packets_moved + res.route.packets_moved;
    misrouted += res.route.misrouted;
    lost_groups += res.route.lost_groups;
    sample_cache(r, net, cache.get());
  }
  ScenarioRunResult v = missing == 0
                            ? verdict_ok()
                            : degraded(std::to_string(missing) + " members missed payload");
  r.ok = v.ok;
  r.verdict = std::move(v.verdict);
  r.counters = {{"setup_rounds", setup_rounds},
                {"algo_rounds", algo_rounds},
                {"delivered", delivered},
                {"misrouted", misrouted},
                {"lost_groups", lost_groups},
                {"routed", routed}};
  append_cache_counters(r, spec, cache.get());
  return r;
}

/// Primitives microbench over Multi-Aggregation (Theorem 2.6): members drawn
/// from the traffic stream, node g sources group g's payload, every member
/// must end up holding exactly its group's payload (singleton SUM). The
/// Spreading Phase exercises cache serving, the final Combining Phase the
/// absorbers — both in one algorithm.
ScenarioRunResult run_multi_aggregation_scenario(Network& net, const Graph& g,
                                                 const ScenarioSpec& spec) {
  const NodeId n = g.n();
  const uint64_t groups = std::min<uint64_t>(n, 8);
  Shared shared(n, spec.seed, spec.overlay);
  std::unique_ptr<CombiningCache> cache = make_cache(shared, spec);
  TrafficStream stream(spec, groups, spec.seed);
  ScenarioRunResult r;
  uint64_t setup_rounds = 0, algo_rounds = 0, routed = 0;
  uint64_t wrong = 0, delivered = 0, misrouted = 0, lost_groups = 0;
  for (uint32_t w = 0; w < spec.request_waves; ++w) {
    MulticastWave wave =
        setup_wave(shared, net, stream, groups, 0xa66, spec.seed + w, cache.get());
    MultiAggregationResult res =
        run_multi_aggregation(shared, net, wave.setup.trees, wave.sends, agg::sum,
                              spec.seed + w, nullptr, cache.get());
    for (NodeId u = 0; u < n; ++u) {
      if (res.at_node[u] && (*res.at_node[u])[0] == 0xa66 + wave.grp_of[u]) {
        ++delivered;
      } else {
        ++wrong;
      }
    }
    setup_rounds += wave.setup.rounds;
    algo_rounds += res.rounds;
    routed += wave.setup.route.packets_moved + res.up_route.packets_moved +
              res.down_route.packets_moved;
    misrouted += res.up_route.misrouted + res.down_route.misrouted;
    lost_groups += res.up_route.lost_groups + res.down_route.lost_groups;
    sample_cache(r, net, cache.get());
  }
  ScenarioRunResult v = wrong == 0
                            ? verdict_ok()
                            : degraded(std::to_string(wrong) +
                                       " nodes missed their aggregate");
  r.ok = v.ok;
  r.verdict = std::move(v.verdict);
  r.counters = {{"setup_rounds", setup_rounds},
                {"algo_rounds", algo_rounds},
                {"delivered", delivered},
                {"misrouted", misrouted},
                {"lost_groups", lost_groups},
                {"routed", routed}};
  append_cache_counters(r, spec, cache.get());
  return r;
}

}  // namespace

const std::vector<std::pair<std::string, ScenarioRunFn>>& algorithm_registry() {
  static const std::vector<std::pair<std::string, ScenarioRunFn>> reg = {
      {"bfs", run_bfs_scenario},
      {"mis", run_mis_scenario},
      {"matching", run_matching_scenario},
      {"coloring", run_coloring_scenario},
      {"mst", run_mst_scenario},
      {"components", run_components_scenario},
      {"gossip", run_gossip_scenario},
      {"broadcast", run_broadcast_scenario},
      {"orientation", run_orientation_scenario},
      {"aggregate", run_aggregate_scenario},
      {"multicast", run_multicast_scenario},
      {"multi_aggregation", run_multi_aggregation_scenario},
  };
  return reg;
}

ScenarioRunFn find_algorithm(const std::string& name) {
  for (const auto& [n, fn] : algorithm_registry())
    if (n == name) return fn;
  return nullptr;
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const auto& [n, fn] : algorithm_registry()) names.push_back(n);
  return names;
}

}  // namespace ncc::scenario
