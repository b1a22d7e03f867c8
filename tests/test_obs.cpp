// Observability subsystem tests: Tracer span nesting / round intervals /
// NetStats deltas, round-hook subscribers coexisting on one Network, the
// RoundLedger's per-round columns and per-host congestion accounting
// (against a brute-force oracle, and the AQ_d aggregation-tree root-host
// bound), the run's peak live bytes with and without the JSON document,
// Chrome trace-event well-formedness via the obs JSON checker, and the
// determinism contract: span streams and trace bytes identical across reruns
// and concurrent cells under every fault model, with wall-clock strictly
// segregated behind the timing flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "obs/flow.hpp"
#include "obs/json_check.hpp"
#include "obs/round_ledger.hpp"
#include "obs/trace_export.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/context.hpp"
#include "primitives/multi_aggregation.hpp"
#include "primitives/multicast.hpp"
#include "scenario/cells.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

using namespace ncc;

namespace {

Network make_net(NodeId n, uint32_t capacity_factor = 8) {
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 7;
  cfg.capacity_factor = capacity_factor;
  return Network(cfg);
}

/// One message per idle round so spans have something to count.
void tick(Network& net, NodeId src, NodeId dst, uint64_t rounds) {
  for (uint64_t r = 0; r < rounds; ++r) {
    net.send(src, dst, 0x1, {r});
    net.end_round();
  }
}

scenario::ScenarioSpec base_spec(const std::string& algorithm, NodeId n) {
  scenario::ScenarioSpec spec;
  spec.name = "obs_test";
  spec.family = scenario::GraphFamily::kGnm;
  spec.provided.graph = true;
  spec.provided.algorithm = true;
  spec.provided.n = true;
  spec.n = n;
  spec.m = 4ull * n;
  spec.connect = true;
  spec.algorithm = algorithm;
  spec.seed = 11;
  return spec;
}

}  // namespace

TEST(Tracer, SpanNestingAndRoundIntervals) {
  Network net = make_net(8);
  obs::Tracer tracer(net);
  EXPECT_EQ(obs::Tracer::of(net), &tracer);

  uint64_t outer = tracer.begin("outer");
  tick(net, 0, 1, 2);
  uint64_t inner = tracer.begin("inner");
  tick(net, 0, 1, 3);
  tracer.end(inner);
  tracer.end(outer);
  uint64_t after = tracer.begin("after");
  tracer.end(after);

  ASSERT_EQ(tracer.spans().size(), 3u);
  const obs::SpanRecord& o = tracer.spans()[0];
  const obs::SpanRecord& i = tracer.spans()[1];
  const obs::SpanRecord& a = tracer.spans()[2];
  EXPECT_EQ(o.name, "outer");
  EXPECT_EQ(o.depth, 0u);
  EXPECT_EQ(o.parent, -1);
  EXPECT_EQ(o.begin_round, 0u);
  EXPECT_EQ(o.end_round, 5u);
  EXPECT_EQ(o.messages, 5u);
  EXPECT_EQ(i.name, "inner");
  EXPECT_EQ(i.depth, 1u);
  EXPECT_EQ(i.parent, 0);
  EXPECT_EQ(i.begin_round, 2u);
  EXPECT_EQ(i.end_round, 5u);
  EXPECT_EQ(i.messages, 3u);
  EXPECT_EQ(a.name, "after");
  EXPECT_EQ(a.begin_round, 5u);
  EXPECT_EQ(a.end_round, 5u);
  EXPECT_EQ(a.messages, 0u);
  EXPECT_FALSE(tracer.truncated());
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(Tracer, SpanGuardIsNoopWithoutTracer) {
  Network net = make_net(4);
  ASSERT_EQ(obs::Tracer::of(net), nullptr);
  {
    obs::Span span(net, "nobody-listening");
    tick(net, 0, 1, 1);
  }
  // Attach one afterwards: earlier guarded scope left no trace.
  obs::Tracer tracer(net);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, CapsSpanCountAndFlagsTruncation) {
  Network net = make_net(4);
  obs::Tracer tracer(net, /*max_spans=*/4);
  for (int k = 0; k < 10; ++k) {
    obs::Span span(net, "s");
    net.end_round();
  }
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.begun(), 10u);
  EXPECT_TRUE(tracer.truncated());
}

TEST(Tracer, TopLevelSpanDeltasSumToNetStats) {
  // Disjoint top-level spans covering the whole run: their message deltas
  // must add up to the network's total exactly.
  Network net = make_net(8);
  obs::Tracer tracer(net);
  for (int phase = 0; phase < 4; ++phase) {
    obs::Span span(net, "phase");
    tick(net, 0, 1, 2 + phase);
  }
  uint64_t sum = 0;
  for (const obs::SpanRecord& s : tracer.spans()) sum += s.messages;
  EXPECT_EQ(sum, net.stats().messages_sent);
}

TEST(Tracer, MultiAggregationSpanEnclosesItsRoutes) {
  const NodeId n = 64;
  Network net = make_net(n);
  Shared shared(n, 5);
  std::vector<MulticastMembership> members;
  for (NodeId u = 4; u < n; ++u) members.push_back({u, 100 + (u % 4)});
  auto setup = setup_multicast_trees(shared, net, members, /*ell1_hat=*/0);
  std::vector<MulticastSend> sends;
  for (NodeId s = 0; s < 4; ++s) sends.push_back({100 + s, s, Val{s, 0}});
  obs::Tracer tracer(net);
  auto res = run_multi_aggregation(shared, net, setup.trees, sends, agg::min_by_first);

  // One top-level span over exactly the call's rounds; its one route.up and
  // one route.down (and its barriers) are nested inside it.
  const std::vector<obs::SpanRecord>& spans = tracer.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "multi_aggregation");
  EXPECT_EQ(spans[0].end_round - spans[0].begin_round, res.rounds);
  std::map<std::string, int> children;
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].depth, 1u) << spans[i].name;
    if (spans[i].parent == 0) ++children[spans[i].name];
  }
  EXPECT_EQ(children["route.up"], 1);
  EXPECT_EQ(children["route.down"], 1);
  EXPECT_EQ(children["multi_aggregation"], 0);
}

TEST(NetworkHooks, SubscribersCoexistAndSeeTheSameStream) {
  // Two bare round hooks beside the round ledger observe the same rounds and
  // read the same delivered inboxes; their reads of the touched lists must
  // not disturb the ledger, and removing one detaches only that one.
  Network net = make_net(8);
  obs::RoundLedger ledger(net);
  struct Probe {
    uint64_t delivered = 0, rounds = 0;
  };
  Probe a, b;
  auto subscribe = [&net](Probe& p) {
    return net.add_round_hook([&net, &p](uint64_t, const NetStats&) {
      ++p.rounds;
      net.for_each_delivered([&](NodeId u, uint32_t) { p.delivered += net.inbox(u).size(); });
    });
  };
  Network::HookId id = subscribe(a);
  subscribe(b);

  for (int r = 0; r < 3; ++r) {
    net.send(1, 0, 0x1, {1});
    net.send(2, 0, 0x1, {2});
    net.end_round();
  }

  EXPECT_EQ(a.delivered, 6u);             // both bare subscribers saw every delivery
  EXPECT_EQ(b.delivered, 6u);
  EXPECT_EQ(ledger.node_messages(0), 6u); // so did the ledger
  EXPECT_EQ(ledger.peak_in_degree(), 2u);
  EXPECT_EQ(ledger.rounds(), 3u);         // every subscriber saw every round
  EXPECT_EQ(a.rounds, 3u);
  EXPECT_EQ(b.rounds, 3u);

  // Removal only detaches the one subscriber.
  net.remove_round_hook(id);
  net.send(1, 0, 0x1, {3});
  net.end_round();
  EXPECT_EQ(a.delivered, 6u);
  EXPECT_EQ(a.rounds, 3u);
  EXPECT_EQ(b.delivered, 7u);
  EXPECT_EQ(b.rounds, 4u);
  EXPECT_EQ(ledger.node_messages(0), 7u);
  EXPECT_EQ(ledger.rounds(), 4u);
}

TEST(Congestion, TracksPeaksHistogramAndHostSplit) {
  Network net = make_net(12);  // columns = 8, nodes 8..11 attach-only
  obs::RoundLedger mon(net);
  // Round 0: node 3 receives 4 messages, node 9 receives 1.
  for (NodeId s = 4; s < 8; ++s) net.send(s, 3, 0x1, {s});
  net.send(0, 9, 0x1, {0});
  net.end_round();
  // Round 1: nothing.
  net.end_round();

  EXPECT_EQ(mon.columns(), 8u);
  EXPECT_EQ(mon.peak_in_degree(), 4u);
  EXPECT_EQ(mon.peak_node(), 3u);
  EXPECT_EQ(mon.peak_round(), 0u);
  EXPECT_EQ(mon.host_messages(), 4u);
  EXPECT_EQ(mon.attach_messages(), 1u);
  EXPECT_EQ(mon.max_round_in_degree(3), 4u);
  // Histogram: one (node, round) pair at in-degree 4 (bucket 2), one at 1.
  EXPECT_EQ(mon.degree_histogram()[0], 1u);
  EXPECT_EQ(mon.degree_histogram()[2], 1u);
  auto top = mon.hottest(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 3u);
  EXPECT_EQ(top[0].second, 4u);
  ASSERT_EQ(mon.max_in_degree().size(), 2u);
  EXPECT_EQ(mon.max_in_degree()[0], 4u);
  EXPECT_EQ(mon.max_in_degree()[1], 0u);
}

TEST(Congestion, AugmentedCubeRootHostBoundAcrossD) {
  // The ROADMAP residual, measured: AQ_d's aggregation tree delivers at most
  // 2d-1 messages per round to the root's host (node 0). At capacity_factor
  // 2 the receive budget is 2d >= 2d-1, so a barrier loses nothing.
  for (uint32_t d : {3u, 4u, 5u, 6u}) {
    NodeId n = NodeId{1} << d;
    Network net = make_net(n, /*capacity_factor=*/2);
    Shared shared(n, 5, OverlayKind::kAugmentedCube);
    obs::RoundLedger mon(net);
    sync_barrier(shared.topo(), net, shared.barrier_workspace());
    EXPECT_LE(mon.max_round_in_degree(0), 2 * d - 1)
        << "AQ_" << d << " root-host in-degree exceeds the 2d-1 bound";
    EXPECT_EQ(net.stats().messages_dropped, 0u)
        << "AQ_" << d << " barrier dropped counts at capacity_factor 2";
  }
}

TEST(Congestion, AugmentedCubeCapacityOneDropsBarrierCounts) {
  // The documented floor: at capacity_factor 1 the cap is d+1 < 2d-1 for
  // d >= 3, so the root's host must shed deliveries — which is why
  // validate_spec rejects capacity-1 augmented_cube specs.
  const uint32_t d = 6;
  NodeId n = NodeId{1} << d;
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 7;
  cfg.capacity_factor = 1;
  cfg.strict_send = false;  // the send budget overflows too; observe, don't abort
  Network net(cfg);
  Shared shared(n, 5, OverlayKind::kAugmentedCube);
  obs::RoundLedger mon(net);
  sync_barrier(shared.topo(), net, shared.barrier_workspace());
  EXPECT_GT(net.stats().messages_dropped, 0u);
  // Pre-drop demand exceeded the cap; the ledger (which reads the delivered
  // inboxes) sees the clamped view.
  EXPECT_GT(net.stats().max_recv_load, net.cap());
  EXPECT_LE(mon.max_round_in_degree(0), net.cap());
}

TEST(RoundLedger, MatchesBruteForceOracleUnderFaults) {
  // Independent oracle: after every end_round(), each per-round column is
  // recomputed from NetStats snapshot differences and from inbox(u).size()
  // over all n nodes, scanned in ascending id order. Drop, corrupt and
  // receive-capacity faults are on from round 1; round 0 plants a tie in
  // the peak in-degree whose first arrival is the larger id; 600 rounds
  // cover the 512-round cap.
  constexpr uint64_t kRounds = 600;
  for (bool engine : {false, true}) {
    SCOPED_TRACE(engine ? "engine attached" : "no engine");
    Network net = make_net(64);  // cap 48, columns 64
    std::optional<Engine> eng;
    if (engine) eng.emplace(net);
    FaultHooks fh;
    fh.drop = [](const Message&, uint64_t round, uint64_t idx) {
      return round > 0 && mix64(round * 0x9e37 + idx) % 10 == 0;
    };
    fh.corrupt = [](Message& m, uint64_t round, uint64_t idx) {
      if (round == 0 || mix64(~round ^ (idx * 31)) % 8 != 0) return false;
      m.words[0] ^= 1;
      return true;
    };
    fh.recv_cap = [](uint64_t round, uint32_t cap) {
      return round % 5 == 4 ? cap / 12 : cap;
    };
    net.install_fault_hooks(fh);
    obs::RoundLedger ledger(net);

    const NodeId n = net.n();
    const NodeId columns = NodeId{1} << floor_log2(n);
    NetStats prev;
    Accumulator sent_acc;
    std::vector<uint64_t> sent, dropped, corrupted;
    std::vector<uint32_t> max_in;
    std::vector<uint32_t> node_peak(n, 0);
    std::vector<uint64_t> node_total(n, 0), hist(33, 0);
    uint64_t host = 0, attach = 0, peak_round = 0;
    uint32_t peak = 0;
    NodeId peak_node = 0;
    Rng rng(5);
    for (uint64_t r = 0; r < kRounds; ++r) {
      if (r == 0) {
        // Node 9 fills its inbox first, node 4 second: equal in-degree cap.
        for (uint32_t i = 0; i < net.cap(); ++i) net.send(20, 9, 0x1, {i});
        for (uint32_t i = 0; i < net.cap(); ++i) net.send(21, 4, 0x1, {i});
      } else if (r % 50 == 0) {
        for (NodeId u = 30; u < 40; ++u)
          for (uint64_t i = 0; i < 8; ++i) net.send(u, 2, 0x1, {i});
      } else {
        for (NodeId u = 0; u < n; ++u) {
          uint64_t k = rng.next_below(4);
          for (uint64_t i = 0; i < k; ++i) {
            NodeId v = rng.next_below(4) == 0 ? static_cast<NodeId>(rng.next_below(3))
                                              : static_cast<NodeId>(rng.next_below(n));
            if (v != u) net.send(u, v, 0x1, {r});
          }
        }
      }
      net.end_round();

      const NetStats& st = net.stats();
      const uint64_t d_sent = st.messages_sent - prev.messages_sent;
      sent_acc.add(static_cast<double>(d_sent));
      uint32_t round_max = 0;
      NodeId round_node = 0;
      for (NodeId u = 0; u < n; ++u) {
        const uint32_t deg = static_cast<uint32_t>(net.inbox(u).size());
        if (deg == 0) continue;
        ++hist[floor_log2(deg)];
        node_peak[u] = std::max(node_peak[u], deg);
        node_total[u] += deg;
        (u < columns ? host : attach) += deg;
        if (deg > round_max) {
          round_max = deg;
          round_node = u;
        }
      }
      if (round_max > peak) {
        peak = round_max;
        peak_node = round_node;
        peak_round = r;
      }
      if (r < obs::RoundLedger::kMaxRounds) {
        sent.push_back(d_sent);
        dropped.push_back((st.messages_dropped + st.fault_drops) -
                          (prev.messages_dropped + prev.fault_drops));
        corrupted.push_back(st.corrupted - prev.corrupted);
        max_in.push_back(round_max);
      }
      prev = st;
    }

    // The faults fired, and round 0's tie is the run's peak.
    ASSERT_GT(net.stats().fault_drops, 0u);
    ASSERT_GT(net.stats().messages_dropped, 0u);
    ASSERT_GT(net.stats().corrupted, 0u);
    EXPECT_EQ(peak, net.cap());
    EXPECT_EQ(peak_node, 4u);
    EXPECT_EQ(peak_round, 0u);

    EXPECT_EQ(ledger.rounds(), kRounds);
    EXPECT_TRUE(ledger.truncated());
    EXPECT_EQ(ledger.sent(), sent);
    EXPECT_EQ(ledger.dropped(), dropped);
    EXPECT_EQ(ledger.corrupted(), corrupted);
    EXPECT_EQ(ledger.max_in_degree(), max_in);
    ASSERT_EQ(ledger.live_bytes().size(), sent.size());
    for (size_t r = 0; r < sent.size(); ++r)
      EXPECT_EQ(ledger.live_bytes()[r], sent[r] * sizeof(Message));
    EXPECT_EQ(ledger.sent_per_round().count(), kRounds);
    EXPECT_EQ(ledger.sent_per_round().mean(), sent_acc.mean());
    EXPECT_EQ(ledger.sent_per_round().max(), sent_acc.max());
    EXPECT_EQ(net.mem_stats().live_bytes_peak,
              static_cast<uint64_t>(sent_acc.max()) * sizeof(Message));

    EXPECT_EQ(ledger.peak_in_degree(), peak);
    EXPECT_EQ(ledger.peak_node(), peak_node);
    EXPECT_EQ(ledger.peak_round(), peak_round);
    EXPECT_EQ(ledger.columns(), columns);
    EXPECT_EQ(ledger.host_messages(), host);
    EXPECT_EQ(ledger.attach_messages(), attach);
    EXPECT_EQ(ledger.degree_histogram(), hist);
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_EQ(ledger.max_round_in_degree(u), node_peak[u]) << "node " << u;
      EXPECT_EQ(ledger.node_messages(u), node_total[u]) << "node " << u;
    }
    // Hottest hosts by repeated selection: largest total, smallest id.
    std::vector<std::pair<NodeId, uint64_t>> hottest;
    std::vector<uint64_t> left = node_total;
    for (int k = 0; k < 8; ++k) {
      NodeId best = 0;
      for (NodeId u = 1; u < n; ++u)
        if (left[u] > left[best]) best = u;
      if (left[best] == 0) break;
      hottest.emplace_back(best, left[best]);
      left[best] = 0;
    }
    EXPECT_EQ(ledger.hottest(8), hottest);
  }
}

TEST(TraceExport, ChromeTraceIsWellFormedAndMonotonic) {
  auto spec = base_spec("bfs", 64);
  scenario::RunOptions opts;
  opts.timing = false;
  opts.collect_trace = true;
  scenario::ScenarioOutcome out = scenario::run_scenario(spec, opts);
  ASSERT_TRUE(out.ran);
  ASSERT_FALSE(out.trace.spans.empty());

  obs::JsonWriter w;
  obs::write_chrome_trace(w, {out.trace}, /*include_timing=*/false);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(w.str(), &doc, &error)) << error;
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  uint64_t spans = 0;
  std::map<std::pair<double, double>, double> last_ts;
  for (const obs::JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const obs::JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string != "X") continue;
    const obs::JsonValue* ts = e.find("ts");
    const obs::JsonValue* dur = e.find("dur");
    ASSERT_TRUE(ts && ts->is_number());
    ASSERT_TRUE(dur && dur->is_number() && dur->number >= 0);
    auto key = std::make_pair(e.find("pid")->number, e.find("tid")->number);
    auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->number, it->second) << "non-monotonic track timestamps";
    }
    last_ts[key] = ts->number;
    ++spans;
  }
  EXPECT_GT(spans, 0u);
}

TEST(TraceExport, TimingTracksAreGated) {
  auto spec = base_spec("bfs", 64);
  scenario::RunOptions opts;
  opts.timing = false;
  opts.collect_trace = true;
  scenario::ScenarioOutcome out = scenario::run_scenario(spec, opts);
  ASSERT_TRUE(out.ran);
  ASSERT_FALSE(out.trace.shard_timing.empty());

  obs::JsonWriter off;
  obs::write_chrome_trace(off, {out.trace}, /*include_timing=*/false);
  EXPECT_EQ(off.str().find("shard "), std::string::npos);

  // Wall-clock present only when asked for (stage counters are nonzero after
  // a real run, so the engine track appears).
  uint64_t loops = 0;
  for (const EngineShardTiming& tm : out.trace.shard_timing) loops += tm.loops;
  EXPECT_GT(loops, 0u);
}

TEST(TraceExport, SpanStreamIdenticalAcrossThreadsUnderAllFaultModels) {
  // The determinism claim: the span stream and congestion series (and hence
  // the deterministic JSON and trace bytes) are identical whether the cells
  // run one at a time or all at once on the cell runner, under every fault
  // model.
  struct Case {
    const char* label;
    void (*mutate)(scenario::ScenarioSpec&);
  };
  const Case cases[] = {
      {"clean", [](scenario::ScenarioSpec&) {}},
      {"crash",
       [](scenario::ScenarioSpec& s) {
         s.faults.crash_rounds = {8};
         s.faults.crash_count = 2;
         s.round_limit = 40000;
       }},
      {"drop",
       [](scenario::ScenarioSpec& s) {
         s.faults.drop_rate = 0.01;
         s.round_limit = 40000;
       }},
      {"byzantine",
       [](scenario::ScenarioSpec& s) {
         s.faults.byzantine_rate = 0.01;
         s.round_limit = 40000;
       }},
      {"partition",
       [](scenario::ScenarioSpec& s) {
         s.faults.partition_windows = {{30, 60}};
         s.round_limit = 40000;
       }},
  };
  std::vector<scenario::ScenarioSpec> specs;
  for (const Case& c : cases) {
    auto spec = base_spec("bfs", 64);
    c.mutate(spec);
    spec.expect = "any";
    specs.push_back(spec);
  }
  scenario::RunOptions opts;
  opts.timing = false;
  opts.collect_trace = true;
  auto one = scenario::run_cells(specs, opts, 1);
  auto all = scenario::run_cells(specs, opts, static_cast<uint32_t>(specs.size()));
  for (size_t i = 0; i < specs.size(); ++i) {
    const char* label = cases[i].label;
    ASSERT_TRUE(one[i].ran && all[i].ran) << label;
    EXPECT_EQ(one[i].json, all[i].json) << label;

    ASSERT_EQ(one[i].trace.spans.size(), all[i].trace.spans.size()) << label;
    obs::JsonWriter w1, wa;
    obs::write_chrome_trace(w1, {one[i].trace}, false);
    obs::write_chrome_trace(wa, {all[i].trace}, false);
    EXPECT_EQ(w1.str(), wa.str()) << label;
  }
}

TEST(WallClockSegregation, TimingFieldsOnlyBehindTheFlag) {
  // Audit, as a test: with timing off, no wall-clock field reaches the
  // deterministic JSON; with timing on, only the trailing "timing" section
  // differs.
  auto spec = base_spec("mis", 64);
  scenario::RunOptions off, on;
  off.timing = false;
  on.timing = true;
  auto quiet = scenario::run_scenario(spec, off);
  auto timed = scenario::run_scenario(spec, on);
  EXPECT_EQ(quiet.json.find("wall_ms"), std::string::npos);
  EXPECT_EQ(quiet.json.find("\"timing\""), std::string::npos);
  EXPECT_NE(timed.json.find("\"timing\""), std::string::npos);
  // The timed JSON is the quiet JSON plus the timing section: stripping
  // everything from the timing key onwards must reproduce a prefix of quiet.
  size_t cut = timed.json.find(", \"timing\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(timed.json.substr(0, cut), quiet.json.substr(0, cut));
}

TEST(JsonCheck, ParsesGoodAndRejectsBadDocuments) {
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null})", &v,
      &err))
      << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("a")->array[2].number, -300.0);
  EXPECT_EQ(v.find("b")->find("c")->string, "x\ny");
  EXPECT_TRUE(v.find("d")->boolean);

  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "tru", "\"unterminated",
        "{\"a\":1} trailing", "[01x]"}) {
    EXPECT_FALSE(obs::json_parse(bad, &v, &err)) << "accepted: " << bad;
  }

  // Nesting is capped (256 levels): a 64-deep document parses, a
  // 100,000-deep one is a parse error at the first level past the cap
  // rather than a stack overflow.
  std::string deep64 = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(obs::json_parse(deep64, &v, &err)) << err;
  std::string deep = std::string(100000, '[') + std::string(100000, ']');
  EXPECT_FALSE(obs::json_parse(deep, &v, &err));
  EXPECT_NE(err.find("nesting deeper than 256 levels at byte 256"), std::string::npos) << err;
}

// Seeded mutation test of the JSON reader over the repo's committed JSON
// (the sweep golden and the three counter-ledger goldens): every mutant, one to three
// edits of a byte, a line or the tail, must parse or be rejected with a
// message that names a byte offset inside the document, never crash.
TEST(JsonFuzz, MutatedDocumentsParseOrReject) {
  // Bytes the grammar turns on, drawn half the time; the rest are any byte.
  static const char kSyntax[] = "{}[]\",:\\-+.eE0123456789tfnul \n";
  Rng rng(0x15011f022);
  for (const char* name : {"tests/golden/sweeps.json", "tests/golden/ledger_engine.json",
                           "tests/golden/ledger_overlay.json",
                           "tests/golden/ledger_hotkey.json"}) {
    std::ifstream in(std::string(NCC_SOURCE_DIR) + "/" + name);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    ASSERT_FALSE(text.empty()) << name;
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::json_parse(text, &doc, &error)) << name << ": " << error;
    size_t parsed = 0;
    const int mutants = 150;
    for (int m = 0; m < mutants; ++m) {
      std::string mutant = text;
      for (uint64_t edits = 1 + rng.next_below(3); edits > 0 && !mutant.empty(); --edits) {
        // `at` picks a byte, and the line holding it spans [bol, eol].
        const size_t at = rng.next_below(mutant.size());
        const size_t nl = at == 0 ? std::string::npos : mutant.rfind('\n', at - 1);
        const size_t bol = nl == std::string::npos ? 0 : nl + 1;
        const size_t eol = std::min(mutant.find('\n', at), mutant.size() - 1);
        const char byte = rng.next_below(2) ? kSyntax[rng.next_below(sizeof(kSyntax) - 1)]
                                            : static_cast<char>(rng.next_below(256));
        switch (rng.next_below(6)) {
          case 0: mutant.erase(at, 1); break;
          case 1: mutant.insert(at, 1, byte); break;
          case 2: mutant[at] = byte; break;
          case 3: mutant.erase(bol, eol + 1 - bol); break;
          case 4: mutant.insert(bol, mutant.substr(bol, eol + 1 - bol)); break;
          default: mutant.resize(at); break;
        }
      }
      error.clear();
      if (obs::json_parse(mutant, &doc, &error)) {
        ++parsed;
        continue;
      }
      const size_t cut = error.rfind(" at byte ");
      ASSERT_NE(cut, std::string::npos) << name << ": rejected without an offset: " << error;
      EXPECT_GT(cut, 0u) << name << ": rejected without a reason: " << error;
      EXPECT_LE(std::stoull(error.substr(cut + 9)), mutant.size()) << name << ": " << error;
    }
    // The mutants reach the accepting paths too (a digit replaced, a
    // duplicated row inside an array), not only the rejections.
    EXPECT_GT(parsed, 0u) << name;
    EXPECT_LT(parsed, static_cast<size_t>(mutants)) << name;
  }
}

TEST(Memory, LedgerTracksLiveBytesAndContainerFootprint) {
  Network net = make_net(8);
  obs::RoundLedger mon(net);
  // Round 0: 3 messages in flight; round 1: 1; round 2: none.
  for (NodeId s = 1; s < 4; ++s) net.send(s, 0, 0x1, {s});
  net.end_round();
  net.send(1, 0, 0x1, {9});
  net.end_round();
  net.end_round();

  ASSERT_EQ(mon.live_bytes().size(), 3u);
  EXPECT_EQ(mon.live_bytes()[0], 3 * sizeof(Message));
  EXPECT_EQ(mon.live_bytes()[1], 1 * sizeof(Message));
  EXPECT_EQ(mon.live_bytes()[2], 0u);
  EXPECT_FALSE(mon.truncated());

  const NetMemStats& nm = net.mem_stats();
  EXPECT_EQ(nm.live_msgs_peak, 3u);
  EXPECT_EQ(nm.live_bytes_peak, 3 * sizeof(Message));
  EXPECT_GT(nm.allocs, 0u);  // pending_/inbox growth from empty
  EXPECT_GT(nm.container_bytes_peak, 0u);
}

TEST(Memory, SectionOnlyBehindTheFlag) {
  // The memory section is segregated exactly like timing: absent by default,
  // and when enabled it only appends trailing bytes — the deterministic
  // prefix is untouched.
  auto spec = base_spec("mis", 64);
  scenario::RunOptions quiet_opts, mem_opts, both_opts;
  quiet_opts.timing = mem_opts.timing = false;
  both_opts.timing = true;
  mem_opts.memory = both_opts.memory = true;
  auto quiet = scenario::run_scenario(spec, quiet_opts);
  auto with_mem = scenario::run_scenario(spec, mem_opts);
  auto with_both = scenario::run_scenario(spec, both_opts);

  EXPECT_EQ(quiet.json.find("\"memory\""), std::string::npos);
  EXPECT_EQ(quiet.json.find("allocs"), std::string::npos);
  EXPECT_NE(with_mem.json.find("\"memory\""), std::string::npos);

  // memory JSON == quiet JSON plus the trailing section.
  size_t cut = with_mem.json.find(", \"memory\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(with_mem.json.substr(0, cut), quiet.json.substr(0, cut));

  // With both flags the sections trail in fixed order: timing, then memory.
  size_t tcut = with_both.json.find(", \"timing\"");
  size_t mcut = with_both.json.find(", \"memory\"");
  ASSERT_NE(tcut, std::string::npos);
  ASSERT_NE(mcut, std::string::npos);
  EXPECT_LT(tcut, mcut);
  EXPECT_EQ(with_both.json.substr(0, tcut), quiet.json.substr(0, tcut));
}

TEST(Memory, PeakLiveBytesDeterministicAcrossThreads) {
  // The same spec as two cells running at once on the cell runner.
  auto spec = base_spec("mis", 64);
  scenario::RunOptions opts;
  opts.timing = false;
  auto outs = scenario::run_cells({spec, spec}, opts, 2);
  const auto& o1 = outs[0];
  const auto& o8 = outs[1];
  ASSERT_TRUE(o1.ran && o8.ran);
  EXPECT_GT(o1.peak_live_bytes, 0u);
  EXPECT_EQ(o1.peak_live_bytes, o8.peak_live_bytes);
}

TEST(Memory, PeakLiveBytesWithAndWithoutJson) {
  // A compact run (sweep cells: no JSON document, no ledger) reports the
  // same peak as a full one: it is the network's own counter.
  auto spec = base_spec("mis", 64);
  scenario::RunOptions full, compact;
  full.timing = compact.timing = false;
  compact.build_json = false;
  auto a = scenario::run_scenario(spec, full);
  auto b = scenario::run_scenario(spec, compact);
  ASSERT_TRUE(a.ran && b.ran);
  EXPECT_GT(b.peak_live_bytes, 0u);
  EXPECT_EQ(a.peak_live_bytes, b.peak_live_bytes);
}

TEST(Flows, SampledFlowsIdenticalAcrossThreadsAndNonEmpty) {
  // Token journeys are recorded at the router's deposit/arrive points, in a
  // fixed order, so the sampled flows of the same spec are bit-identical
  // even when two cells run it at once on the cell runner.
  auto spec = base_spec("aggregate", 64);
  scenario::RunOptions opts;
  opts.timing = false;
  opts.collect_trace = true;
  auto outs = scenario::run_cells({spec, spec}, opts, 2);
  const auto& o1 = outs[0];
  const auto& o8 = outs[1];
  ASSERT_TRUE(o1.ran && o8.ran);
  EXPECT_EQ(o1.json, o8.json);

  ASSERT_FALSE(o1.trace.flows.empty());
  ASSERT_EQ(o1.trace.flows.size(), o8.trace.flows.size());
  for (size_t i = 0; i < o1.trace.flows.size(); ++i) {
    const obs::SampledFlow& a = o1.trace.flows[i];
    const obs::SampledFlow& b = o8.trace.flows[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.up, b.up);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].level, b.hops[h].level);
      EXPECT_EQ(a.hops[h].edge, b.hops[h].edge);
      EXPECT_EQ(a.hops[h].host, b.hops[h].host);
      EXPECT_EQ(a.hops[h].round, b.hops[h].round);
    }
  }
  // A combining-phase journey descends the routing levels over multiple hops.
  bool multi_hop = false;
  for (const obs::SampledFlow& f : o1.trace.flows)
    multi_hop |= f.hops.size() >= 2;
  EXPECT_TRUE(multi_hop);
}

TEST(Flows, TraceCarriesMemoryCounterAndMatchedFlowEvents) {
  auto spec = base_spec("aggregate", 64);
  scenario::RunOptions opts;
  opts.timing = false;
  opts.collect_trace = true;
  auto out = scenario::run_scenario(spec, opts);
  ASSERT_TRUE(out.ran);
  ASSERT_FALSE(out.trace.live_bytes.empty());
  ASSERT_FALSE(out.trace.flows.empty());

  obs::JsonWriter w;
  obs::write_chrome_trace(w, {out.trace}, /*include_timing=*/false);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(w.str(), &doc, &error)) << error;
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events && events->is_array());

  uint64_t memory_counters = 0;
  std::map<double, std::pair<uint64_t, uint64_t>> flow_ends;  // id -> (s, f)
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* ph = e.find("ph");
    ASSERT_TRUE(ph && ph->is_string());
    if (ph->string == "C") {
      const obs::JsonValue* name = e.find("name");
      const obs::JsonValue* value = e.find("args")->find("value");
      ASSERT_TRUE(value && value->is_number());
      EXPECT_GE(value->number, 0.0);
      if (name->string == "live_msg_bytes") ++memory_counters;
    } else if (ph->string == "s" || ph->string == "f") {
      const obs::JsonValue* id = e.find("id");
      ASSERT_TRUE(id && id->is_number()) << "flow event without id";
      if (ph->string == "s") ++flow_ends[id->number].first;
      if (ph->string == "f") ++flow_ends[id->number].second;
    }
  }
  EXPECT_GT(memory_counters, 0u);
  ASSERT_FALSE(flow_ends.empty());
  for (const auto& [id, counts] : flow_ends) {
    EXPECT_EQ(counts.first, 1u) << "flow id " << id;
    EXPECT_EQ(counts.second, 1u) << "flow id " << id;
  }
}

TEST(Flows, SamplerCapsAdmissionAndHops) {
  Network net = make_net(8);
  obs::FlowSampler sampler(net, /*seed=*/3, /*max_flows=*/2, /*max_hops=*/4);
  ASSERT_EQ(obs::FlowSampler::of(net), &sampler);
  // Hammer many groups: at most max_flows journeys are admitted, and a
  // journey never exceeds max_hops hops (truncation flagged).
  for (uint64_t g = 0; g < 64; ++g)
    for (uint64_t hop = 0; hop < 8; ++hop)
      sampler.record_hop(g, false, static_cast<uint32_t>(hop), 0, 0, hop);
  EXPECT_LE(sampler.flows().size(), 2u);
  ASSERT_FALSE(sampler.flows().empty());  // first group is always followed
  EXPECT_EQ(sampler.flows()[0].group, 0u);
  for (const obs::SampledFlow& f : sampler.flows())
    EXPECT_LE(f.hops.size(), 4u);
  EXPECT_TRUE(sampler.truncated());
}

TEST(EngineTiming, ShardProfileAccumulates) {
  Network net = make_net(16);
  Engine eng(net);
  for (int r = 0; r < 4; ++r) {
    engine_send_loop(net, 16, [](uint64_t i, Network& out) {
      out.send(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % 16), 0x1,
               {i});
    });
    net.end_round();
  }
  uint64_t loops = 0, deliveries = 0;
  for (const EngineShardTiming& tm : eng.shard_timing()) {
    loops += tm.loops;
    deliveries += tm.deliveries;
  }
  EXPECT_EQ(loops, 4u);  // one per round
  EXPECT_EQ(deliveries, 4u);
  // An empty loop and an empty round are not timed.
  engine_send_loop(net, 0, [](uint64_t, Network&) { FAIL(); });
  net.end_round();
  EXPECT_EQ(eng.shard_timing()[0].loops, 4u);
  EXPECT_EQ(eng.shard_timing()[0].deliveries, 4u);
}
