// Scenario subsystem tests: spec/sweep parse round-trips and strict rejection
// of malformed specs and sweep axes (plus a seeded mutation test of both
// parsers over the catalog), registry coverage, expectation gating,
// and the determinism contract extended through fault injection — the same
// spec + seed must produce bit-identical machine-readable output on reruns
// and whether its cell ran alone or beside others on the cell runner;
// crashes, partitions, and byzantine corruption all included.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/rng.hpp"
#include "scenario/cells.hpp"
#include "scenario/faults.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

using namespace ncc;
using namespace ncc::scenario;

namespace {

ScenarioSpec parse_ok(const std::string& text) {
  std::string error;
  auto spec = parse_spec(text, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return spec.value_or(ScenarioSpec{});
}

/// Runs `texts` as cells on the cell runner at one thread and at four; every
/// cell's JSON must match across the two, and each outcome is returned in
/// cell order.
std::vector<ScenarioOutcome> run_cells_both_ways(const std::vector<std::string>& texts) {
  std::vector<ScenarioSpec> specs;
  for (const std::string& t : texts) specs.push_back(parse_ok(t));
  RunOptions opts;
  opts.timing = false;
  std::vector<ScenarioOutcome> one = run_cells(specs, opts, 1);
  std::vector<ScenarioOutcome> four = run_cells(specs, opts, 4);
  EXPECT_EQ(one.size(), texts.size());
  EXPECT_EQ(four.size(), texts.size());
  for (size_t i = 0; i < std::min(one.size(), four.size()); ++i)
    EXPECT_EQ(one[i].json, four[i].json) << texts[i];
  return one;
}

void expect_reject(const std::string& text, const std::string& why_contains) {
  std::string error;
  auto spec = parse_spec(text, &error);
  EXPECT_FALSE(spec.has_value()) << "accepted:\n" << text;
  EXPECT_NE(error.find(why_contains), std::string::npos)
      << "error `" << error << "` does not mention `" << why_contains << "`";
}

}  // namespace

TEST(ScenarioSpec, ParsesFullSpec) {
  ScenarioSpec s = parse_ok(
      "# a comment\n"
      "name = crash_test\n"
      "graph = gnm\n"
      "n = 128\n"
      "m = 512   # trailing comment\n"
      "connect = true\n"
      "weights = distinct\n"
      "algorithm = mst\n"
      "seed = 42\n"
      "capacity_factor = 6\n"
      "threads = 4\n"
      "round_limit = 500\n"
      "crash_rounds = 10,25\n"
      "crash_count = 2\n"
      "drop_rate = 0.01\n"
      "perturb_every = 16\n"
      "perturb_for = 4\n"
      "perturb_factor = 2\n");
  EXPECT_EQ(s.name, "crash_test");
  EXPECT_EQ(s.family, GraphFamily::kGnm);
  EXPECT_EQ(s.n, 128u);
  EXPECT_EQ(s.m, 512u);
  EXPECT_TRUE(s.connect);
  EXPECT_EQ(s.weights, WeightMode::kDistinct);
  EXPECT_EQ(s.algorithm, "mst");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.capacity_factor, 6u);
  EXPECT_EQ(s.threads, 4u);
  EXPECT_EQ(s.round_limit, 500u);
  ASSERT_EQ(s.faults.crash_rounds.size(), 2u);
  EXPECT_EQ(s.faults.crash_rounds[1], 25u);
  EXPECT_EQ(s.faults.crash_count, 2u);
  EXPECT_DOUBLE_EQ(s.faults.drop_rate, 0.01);
  EXPECT_EQ(s.faults.perturb_every, 16u);
  EXPECT_TRUE(s.faults.any());
}

TEST(ScenarioSpec, RoundTripsExactly) {
  const char* texts[] = {
      "graph = clique\nn = 64\nalgorithm = bfs\n",
      "graph = grid\nrows = 6\ncols = 9\nalgorithm = mis\nseed = 7\n",
      "graph = powerlaw\nn = 100\nbeta = 2.25\nmax_deg = 16\nalgorithm = "
      "coloring\n",
      "graph = gnm\nn = 90\nm = 300\nweights = random\nw_max = 99\nalgorithm = "
      "mst\nround_limit = 400\ndrop_rate = 0.125\n",
      "graph = forest_union\nn = 80\na = 3\nalgorithm = matching\nround_limit = "
      "200\ncrash_rounds = 5,9\ncrash_count = 4\nperturb_every = 8\nperturb_for "
      "= 2\nperturb_factor = 3\n",
      "graph = clique\nn = 64\nalgorithm = bfs\nround_limit = 300\n"
      "partition_windows = 10-20,40-80\npartition_frac = 0.25\n"
      "byzantine_rate = 0.125\nexpect = degraded\n",
  };
  for (const char* text : texts) {
    ScenarioSpec a = parse_ok(text);
    ScenarioSpec b = parse_ok(a.to_string());
    EXPECT_EQ(a.to_string(), b.to_string()) << text;
  }
}

TEST(ScenarioSpec, ParsesPartitionAndByzantineFaults) {
  ScenarioSpec s = parse_ok(
      "graph = clique\nn = 64\nalgorithm = bfs\nround_limit = 500\n"
      "partition_windows = 5-15,30-60\npartition_frac = 0.3\n"
      "byzantine_rate = 0.05\n");
  ASSERT_EQ(s.faults.partition_windows.size(), 2u);
  EXPECT_EQ(s.faults.partition_windows[0].lo, 5u);
  EXPECT_EQ(s.faults.partition_windows[0].hi, 15u);
  EXPECT_EQ(s.faults.partition_windows[1].lo, 30u);
  EXPECT_EQ(s.faults.partition_windows[1].hi, 60u);
  EXPECT_DOUBLE_EQ(s.faults.partition_frac, 0.3);
  EXPECT_DOUBLE_EQ(s.faults.byzantine_rate, 0.05);
  EXPECT_TRUE(s.faults.any());
  EXPECT_EQ(s.expect, "any");  // auto-resolved: faults are on

  // Empty window, inverted window, out-of-range knobs, orphan frac, and the
  // round_limit mandate all reject.
  expect_reject(
      "graph = clique\nn = 64\nalgorithm = bfs\nround_limit = 100\n"
      "partition_windows = 20-10\n",
      "malformed");
  expect_reject(
      "graph = clique\nn = 64\nalgorithm = bfs\nround_limit = 100\n"
      "partition_windows = 10\n",
      "malformed");
  expect_reject(
      "graph = clique\nn = 64\nalgorithm = bfs\nround_limit = 100\n"
      "partition_frac = 0.5\n",
      "partition_frac");
  expect_reject(
      "graph = clique\nn = 64\nalgorithm = bfs\nround_limit = 100\n"
      "byzantine_rate = 1.5\n",
      "malformed");
  expect_reject("graph = clique\nn = 64\nalgorithm = bfs\npartition_windows = 1-9\n",
                "round_limit");
  expect_reject("graph = clique\nn = 64\nalgorithm = bfs\nexpect = maybe\n",
                "expect");
}

TEST(ScenarioSpec, RejectsThreadsOutsideOneTo1024) {
  // `threads` is accepted but runs nothing: a run executes on one thread.
  // Parsing alone must reject 0 and values past the --threads bound.
  const std::string base = "graph = clique\nn = 8\nalgorithm = bfs\n";
  expect_reject(base + "threads = 0\n", "malformed value for `threads`");
  expect_reject(base + "threads = 4294967295\n", "malformed value for `threads`");
  expect_reject(base + "threads = 1025\n", "malformed value for `threads`");
  EXPECT_EQ(parse_ok(base + "threads = 1024\n").threads, 1024u);
}

TEST(ScenarioSpec, RejectsMalformedSpecs) {
  expect_reject("graph = clique\nn = 64\n", "algorithm");
  expect_reject("n = 64\nalgorithm = bfs\n", "graph");
  expect_reject("graph = clique\nalgorithm = bfs\n", "n");
  expect_reject("graph = klein_bottle\nn = 8\nalgorithm = bfs\n", "graph family");
  expect_reject("graph = clique\nn = 64\nalgorithm = bfs\nbogus_key = 1\n",
                "unknown key");
  expect_reject("graph = clique\nn = sixty\nalgorithm = bfs\n", "malformed");
  expect_reject("graph = clique\nn = 64\nalgorithm = bfs\nseed\n", "key = value");
  expect_reject("graph = clique\nn = 64\nalgorithm = bfs\ndrop_rate = 1.5\n",
                "malformed");
  expect_reject("graph = clique\nn = 1\nalgorithm = bfs\n", "n must be");
  // power_law_graph needs beta > 1.
  for (const char* beta : {"1", "0.5"})
    expect_reject("graph = powerlaw\nn = 64\nbeta = " + std::string(beta) +
                      "\nmax_deg = 8\nalgorithm = mis\n",
                  "malformed value for `beta`");
  expect_reject("graph = gnm\nn = 64\nalgorithm = bfs\n", "requires `m`");
  expect_reject("graph = grid\nrows = 4\nalgorithm = bfs\n", "rows");
  expect_reject("graph = grid\nrows = 4\ncols = 4\nn = 99\nalgorithm = bfs\n",
                "contradicts");
  // Faults without a round limit would let a jammed protocol spin forever.
  expect_reject("graph = clique\nn = 64\nalgorithm = bfs\ndrop_rate = 0.1\n",
                "round_limit");
  expect_reject(
      "graph = clique\nn = 64\nalgorithm = bfs\nround_limit = 100\n"
      "perturb_every = 4\nperturb_for = 4\n",
      "perturb_for");
  expect_reject("graph = clique\nn = 64\nalgorithm = bfs\noverlay = torus\n",
                "overlay must be butterfly|hypercube|augmented_cube|radix4_butterfly, "
                "got `torus`");
  // The listed names come from the overlay name table: every kind appears.
  for (OverlayKind kind : all_overlay_kinds())
    expect_reject("graph = clique\nn = 64\nalgorithm = bfs\noverlay = torus\n",
                  overlay_name(kind));
  // The AQ_d aggregation tree needs a receive budget of 2d-1 at the root's
  // host (measured in tests/test_obs.cpp); capacity_factor 1 cannot carry it.
  expect_reject(
      "graph = clique\nn = 64\nalgorithm = bfs\noverlay = augmented_cube\n"
      "capacity_factor = 1\n",
      "capacity_factor >= 2");
}

TEST(ScenarioSpec, OverlayKeyParsesAndRoundTrips) {
  // Default is the paper's butterfly; the key is omitted from the canonical
  // serialization so parse(to_string(s)) round-trips exactly.
  ScenarioSpec def = parse_ok("graph = clique\nn = 32\nalgorithm = mis\n");
  EXPECT_EQ(def.overlay, OverlayKind::kButterfly);
  EXPECT_EQ(def.to_string().find("overlay ="), std::string::npos);
  for (const char* name :
       {"butterfly", "hypercube", "augmented_cube", "radix4_butterfly"}) {
    ScenarioSpec s = parse_ok("graph = clique\nn = 32\nalgorithm = mis\noverlay = " +
                              std::string(name) + "\n");
    EXPECT_EQ(s.overlay, *overlay_from_name(name));
    ScenarioSpec back = parse_ok(s.to_string());
    EXPECT_EQ(back.overlay, s.overlay);
    EXPECT_EQ(back.to_string(), s.to_string());
  }
}

TEST(ScenarioSweep, OverlayIsSweepable) {
  std::string err;
  auto sweep = parse_sweep(
      "graph = clique\nn = 32\nalgorithm = aggregate\n"
      "sweep.overlay = butterfly,hypercube,augmented_cube,radix4_butterfly\n",
      &err);
  ASSERT_TRUE(sweep.has_value()) << err;
  ASSERT_EQ(sweep->cells(), 4u);
  OverlayKind expect[] = {OverlayKind::kButterfly, OverlayKind::kHypercube,
                          OverlayKind::kAugmentedCube, OverlayKind::kRadix4Butterfly};
  for (uint64_t c = 0; c < 4; ++c) {
    auto spec = expand_sweep_cell(*sweep, c, &err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->overlay, expect[c]);
  }
  EXPECT_FALSE(parse_sweep("graph = clique\nn = 32\nalgorithm = mis\n"
                           "sweep.overlay = butterfly,moebius\n",
                           &err)
                   .has_value());
}

TEST(ScenarioSpec, BuildsEveryFamily) {
  struct Case {
    const char* text;
    NodeId n;
  } cases[] = {
      {"graph = path\nn = 10\nalgorithm = bfs\n", 10},
      {"graph = cycle\nn = 12\nalgorithm = bfs\n", 12},
      {"graph = star\nn = 9\nalgorithm = bfs\n", 9},
      {"graph = clique\nn = 8\nalgorithm = bfs\n", 8},
      {"graph = grid\nrows = 3\ncols = 5\nalgorithm = bfs\n", 15},
      {"graph = hypercube\ndim = 4\nalgorithm = bfs\n", 16},
      {"graph = tree\nn = 20\nalgorithm = bfs\n", 20},
      {"graph = forest_union\nn = 24\na = 2\nalgorithm = bfs\n", 24},
      {"graph = gnm\nn = 16\nm = 30\nalgorithm = bfs\n", 16},
      {"graph = gnp\nn = 16\np = 0.3\nalgorithm = bfs\n", 16},
      {"graph = powerlaw\nn = 32\nalgorithm = bfs\n", 32},
      {"graph = barabasi_albert\nn = 32\nk = 2\nalgorithm = bfs\n", 32},
  };
  for (const Case& c : cases) {
    ScenarioSpec spec = parse_ok(c.text);
    std::string error;
    auto g = build_graph(spec, &error);
    ASSERT_TRUE(g.has_value()) << c.text << error;
    EXPECT_EQ(g->n(), c.n) << c.text;
  }
}

TEST(ScenarioRegistry, KnowsTheCatalogAlgorithms) {
  EXPECT_GE(algorithm_names().size(), 10u);
  for (const char* name : {"bfs", "mis", "mst", "coloring", "matching",
                           "components", "gossip", "broadcast", "orientation",
                           "aggregate", "multicast"})
    EXPECT_NE(find_algorithm(name), nullptr) << name;
  EXPECT_EQ(find_algorithm("quantum_sort"), nullptr);
}

TEST(ScenarioRunner, CleanRunIsOk) {
  ScenarioSpec spec = parse_ok("graph = clique\nn = 48\nalgorithm = mis\nseed = 5\n");
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome out = run_scenario(spec, opts);
  EXPECT_TRUE(out.ran);
  EXPECT_TRUE(out.ok) << out.verdict;
  EXPECT_EQ(out.verdict, "ok");
  EXPECT_EQ(out.fault_drops, 0u);
  EXPECT_EQ(out.crashed, 0u);
  EXPECT_GT(out.rounds, 0u);
}

TEST(ScenarioRunner, UnknownAlgorithmIsAnError) {
  ScenarioSpec spec = parse_ok("graph = clique\nn = 16\nalgorithm = bfs\n");
  spec.algorithm = "quantum_sort";
  ScenarioOutcome out = run_scenario(spec, {});
  EXPECT_FALSE(out.ran);
  EXPECT_NE(out.verdict.find("error:"), std::string::npos);
  EXPECT_NE(out.json.find("\"ok\": false"), std::string::npos);
}

TEST(ScenarioRunner, CrashFaultsFire) {
  ScenarioSpec spec = parse_ok(
      "graph = clique\nn = 48\nalgorithm = gossip\nseed = 3\n"
      "round_limit = 100\ncrash_rounds = 0\ncrash_count = 5\n");
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome out = run_scenario(spec, opts);
  EXPECT_TRUE(out.ran);
  EXPECT_EQ(out.crashed, 5u);
  EXPECT_GT(out.fault_drops, 0u);  // crashed nodes' traffic is lost
  EXPECT_FALSE(out.ok);            // gossip cannot complete without them
}

TEST(ScenarioRunner, RoundLimitAborts) {
  // 60% loss jams the butterfly's token-based termination; the injector must
  // convert the would-be livelock into a round_limit verdict.
  ScenarioSpec spec = parse_ok(
      "graph = clique\nn = 32\nalgorithm = aggregate\nseed = 2\n"
      "round_limit = 50\ndrop_rate = 0.6\n");
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome out = run_scenario(spec, opts);
  EXPECT_TRUE(out.ran);
  EXPECT_EQ(out.verdict, "round_limit");
  EXPECT_EQ(out.rounds, 50u);
}

TEST(ScenarioRunner, PerturbationCausesCapacityDrops) {
  // Gossip saturates the receive capacity exactly; halving it every round
  // must produce capacity drops (not fault drops — perturbation shrinks the
  // reservoir, the reservoir does the dropping).
  ScenarioSpec spec = parse_ok(
      "graph = clique\nn = 64\nalgorithm = gossip\nseed = 4\nround_limit = 60\n"
      "perturb_every = 2\nperturb_for = 1\nperturb_factor = 2\n");
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome out = run_scenario(spec, opts);
  EXPECT_TRUE(out.ran);
  EXPECT_EQ(out.json.find("\"dropped\": 0,"), std::string::npos)
      << "expected nonzero capacity drops: " << out.json;
  EXPECT_FALSE(out.ok);
}

// The determinism acceptance check: same spec + seed => byte-identical JSON
// on a rerun and across cell-runner thread counts, including under every
// fault model at once.
TEST(ScenarioRunner, FaultInjectionIsThreadCountInvariant) {
  const std::vector<std::string> specs = {
      // all five fault models at once
      "graph = gnm\nn = 96\nm = 400\nalgorithm = mis\nseed = 11\n"
      "round_limit = 300\ncrash_rounds = 8,20\ncrash_count = 3\n"
      "drop_rate = 0.03\nperturb_every = 10\nperturb_for = 2\nperturb_factor = 2\n"
      "partition_windows = 30-50\npartition_frac = 0.5\nbyzantine_rate = 0.02\n",
      // crash-only, different algorithm
      "graph = forest_union\nn = 96\na = 3\nalgorithm = matching\nseed = 12\n"
      "round_limit = 300\ncrash_rounds = 15\ncrash_count = 4\n",
      // fault-free control
      "graph = clique\nn = 64\nalgorithm = bfs\nseed = 13\n",
  };
  std::vector<ScenarioOutcome> outs = run_cells_both_ways(specs);
  // And re-running is reproducible outright.
  RunOptions opts;
  opts.timing = false;
  for (size_t i = 0; i < outs.size(); ++i)
    EXPECT_EQ(outs[i].json, run_scenario(parse_ok(specs[i]), opts).json) << specs[i];
}

// Dedicated byte-identity checks for the two new fault models, run over the
// algorithms whose decode paths they stress hardest: partition/heal across a
// healing broadcast and an aggregation routed straight through the cut
// (where the router's stall heartbeat re-sends termination tokens), byzantine
// corruption across the broadcast rumor chain and the overlay's
// combining/spreading phases (where corrupted group ids force the
// misrouted-packet handling).
TEST(ScenarioRunner, PartitionHealIsThreadCountInvariant) {
  const std::vector<std::string> specs = {
      "graph = gnm\nn = 96\nm = 480\nconnect = true\nalgorithm = broadcast\n"
      "seed = 21\nround_limit = 400\npartition_windows = 0-8\n"
      "partition_frac = 0.5\n",
      "graph = gnm\nn = 96\nm = 480\nconnect = true\nalgorithm = aggregate\n"
      "seed = 22\nround_limit = 800\npartition_windows = 2-10\n"
      "partition_frac = 0.25\n",
  };
  std::vector<ScenarioOutcome> outs = run_cells_both_ways(specs);
  for (size_t i = 0; i < outs.size(); ++i)
    EXPECT_GT(outs[i].fault_drops, 0u) << specs[i];  // the cut dropped traffic
}

// BFS heal recovery (ROADMAP): the partition schedule is declared, so the BFS
// adapter holds its broadcast-tree setup until the last window closes and
// (re-)sends the setup tokens on the healed network — a cut overlapping the
// setup no longer jams termination detection into round_limit, it completes
// `ok` with correct distances (the clean-run outputs, delayed by the wait).
TEST(ScenarioRunner, BfsRecoversAfterPartitionHeal) {
  ScenarioSpec spec = parse_ok(
      "graph = gnm\nn = 96\nm = 480\nconnect = true\nalgorithm = bfs\n"
      "seed = 22\nround_limit = 2600\npartition_windows = 0-8\n"
      "partition_frac = 0.25\nexpect = ok\n");
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome out = run_scenario(spec, opts);
  EXPECT_EQ(out.verdict, "ok");
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.fault_drops, 0u);  // nothing was in flight while the cut was open
}

TEST(ScenarioRunner, ByzantineCorruptionIsThreadCountInvariant) {
  const std::vector<std::string> specs = {
      "graph = hypercube\ndim = 6\nalgorithm = broadcast\nseed = 31\n"
      "round_limit = 200\nbyzantine_rate = 0.1\n",
      "graph = powerlaw\nn = 96\nbeta = 2.5\nmax_deg = 24\n"
      "algorithm = aggregate\nseed = 32\nround_limit = 500\n"
      "byzantine_rate = 0.05\n",
      "graph = clique\nn = 48\nalgorithm = multicast\nseed = 33\n"
      "round_limit = 500\nbyzantine_rate = 0.05\n",
  };
  std::vector<ScenarioOutcome> outs = run_cells_both_ways(specs);
  for (size_t i = 0; i < outs.size(); ++i)
    EXPECT_GT(outs[i].corrupted, 0u) << specs[i];  // corruption actually fired
}

TEST(ScenarioRunner, BroadcastReportsCorruptedTokens) {
  ScenarioSpec spec = parse_ok(
      "graph = hypercube\ndim = 6\nalgorithm = broadcast\nseed = 31\n"
      "round_limit = 200\nbyzantine_rate = 0.2\n");
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome out = run_scenario(spec, opts);
  EXPECT_TRUE(out.ran);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.verdict.find("corrupted tokens"), std::string::npos) << out.verdict;
  EXPECT_FALSE(out.failed);  // byzantine faults are declared: degraded is expected
}

// The regression gate: `expect` decides whether a verdict fails the run.
TEST(ScenarioRunner, ExpectClassGatesTheFailedBit) {
  // A fault-free clean run expects ok and delivers it.
  ScenarioSpec clean = parse_ok("graph = clique\nn = 48\nalgorithm = mis\nseed = 5\n");
  EXPECT_EQ(clean.expect, "ok");
  RunOptions opts;
  opts.timing = false;
  ScenarioOutcome out = run_scenario(clean, opts);
  EXPECT_FALSE(out.failed);
  EXPECT_NE(out.json.find("\"failed\": false"), std::string::npos);

  // A lossy run that jams into round_limit: expected under `any` (the
  // faulted default) and under an explicit `round_limit`, a regression
  // under an explicit `ok`.
  const std::string lossy =
      "graph = clique\nn = 32\nalgorithm = aggregate\nseed = 2\n"
      "round_limit = 50\ndrop_rate = 0.6\n";
  ScenarioSpec spec = parse_ok(lossy);
  EXPECT_EQ(spec.expect, "any");
  EXPECT_FALSE(run_scenario(spec, opts).failed);
  spec = parse_ok(lossy + "expect = round_limit\n");
  EXPECT_FALSE(run_scenario(spec, opts).failed);
  spec = parse_ok(lossy + "expect = ok\n");
  ScenarioOutcome gated = run_scenario(spec, opts);
  EXPECT_TRUE(gated.failed);
  EXPECT_EQ(gated.verdict, "round_limit");
  spec = parse_ok(lossy + "expect = degraded\n");
  EXPECT_TRUE(run_scenario(spec, opts).failed);  // round_limit != degraded

  // Unknown algorithms are error verdicts and always fail.
  ScenarioSpec bad = parse_ok("graph = clique\nn = 16\nalgorithm = bfs\n");
  bad.algorithm = "quantum_sort";
  EXPECT_TRUE(run_scenario(bad, {}).failed);
}

TEST(ScenarioRunner, ExpectListAcceptsAnyMemberClass) {
  // `expect = ok,degraded` gates out exactly round_limit and error verdicts:
  // the jammed lossy run fails it, while both an ok run and a degraded run
  // pass. The list round-trips through serialization like any other value.
  RunOptions opts;
  opts.timing = false;
  const std::string lossy =
      "graph = clique\nn = 32\nalgorithm = aggregate\nseed = 2\n"
      "round_limit = 50\ndrop_rate = 0.6\n";
  ScenarioSpec spec = parse_ok(lossy + "expect = ok,degraded\n");
  EXPECT_EQ(spec.expect, "ok,degraded");
  ScenarioOutcome jammed = run_scenario(spec, opts);
  EXPECT_EQ(jammed.verdict, "round_limit");
  EXPECT_TRUE(jammed.failed);
  EXPECT_EQ(parse_ok(spec.to_string()).expect, "ok,degraded");

  ScenarioSpec clean = parse_ok(
      "graph = clique\nn = 48\nalgorithm = mis\nseed = 5\nexpect = ok,degraded\n");
  EXPECT_FALSE(run_scenario(clean, opts).failed);

  ScenarioSpec degraded_run = parse_ok(
      "graph = clique\nn = 32\nalgorithm = aggregate\nseed = 2\n"
      "round_limit = 400\ndrop_rate = 0.2\nexpect = degraded,round_limit\n");
  ScenarioOutcome deg = run_scenario(degraded_run, opts);
  EXPECT_EQ(deg.verdict.rfind("degraded", 0), 0u) << deg.verdict;
  EXPECT_FALSE(deg.failed);

  // Malformed members are parse errors, not silently ignored — a trailing
  // comma included.
  expect_reject(lossy + "expect = ok,sometimes\n", "expect");
  expect_reject(lossy + "expect = ,\n", "expect");
  expect_reject(lossy + "expect = ok,\n", "expect");
}

TEST(SweepSpec, ExpandsTheCrossProduct) {
  std::string error;
  auto sweep = parse_sweep(
      "name = grid\n"
      "graph = clique\n"
      "algorithm = bfs\n"
      "seed = 9\n"
      "sweep.n = 16,32\n"
      "sweep.capacity_factor = 4,8,16\n",
      &error);
  ASSERT_TRUE(sweep.has_value()) << error;
  ASSERT_EQ(sweep->axes.size(), 2u);
  EXPECT_EQ(sweep->cells(), 6u);
  // Odometer order: last axis fastest.
  EXPECT_EQ(sweep_cell_label(*sweep, 0), "n=16,capacity_factor=4");
  EXPECT_EQ(sweep_cell_label(*sweep, 1), "n=16,capacity_factor=8");
  EXPECT_EQ(sweep_cell_label(*sweep, 3), "n=32,capacity_factor=4");
  EXPECT_EQ(sweep_cell_label(*sweep, 5), "n=32,capacity_factor=16");
  auto cell = expand_sweep_cell(*sweep, 5, &error);
  ASSERT_TRUE(cell.has_value()) << error;
  EXPECT_EQ(cell->name, "grid/n=32,capacity_factor=16");
  EXPECT_EQ(cell->n, 32u);
  EXPECT_EQ(cell->capacity_factor, 16u);
  EXPECT_EQ(cell->seed, 9u);  // base keys carry into every cell

  // Axis values override a base assignment for the same key.
  auto over = parse_sweep(
      "graph = clique\nn = 8\nalgorithm = bfs\nsweep.n = 48,64\n", &error);
  ASSERT_TRUE(over.has_value()) << error;
  auto c0 = expand_sweep_cell(*over, 0, &error);
  ASSERT_TRUE(c0.has_value()) << error;
  EXPECT_EQ(c0->n, 48u);

  // A plain spec is a one-cell sweep whose cell keeps the bare name.
  auto plain = parse_sweep("name = solo\ngraph = clique\nn = 8\nalgorithm = bfs\n",
                           &error);
  ASSERT_TRUE(plain.has_value()) << error;
  EXPECT_EQ(plain->cells(), 1u);
  EXPECT_EQ(sweep_cell_label(*plain, 0), "");
  auto solo = expand_sweep_cell(*plain, 0, &error);
  ASSERT_TRUE(solo.has_value()) << error;
  EXPECT_EQ(solo->name, "solo");
}

TEST(SweepSpec, RoundTripsExactly) {
  const char* texts[] = {
      "graph = clique\nn = 16\nalgorithm = bfs\n",
      "name = grid\ngraph = gnm\nm = 480\nconnect = true\nalgorithm = mis\n"
      "round_limit = 4000\nsweep.n = 96,192\nsweep.drop_rate = 0,0.01,0.05\n"
      "sweep.threads = 1,8\n",
      "graph = hypercube\nalgorithm = broadcast\nround_limit = 200\n"
      "sweep.dim = 5,7\nsweep.byzantine_rate = 0.02,0.1\n",
  };
  for (const char* text : texts) {
    std::string error;
    auto a = parse_sweep(text, &error);
    ASSERT_TRUE(a.has_value()) << error;
    auto b = parse_sweep(a->to_string(), &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(a->to_string(), b->to_string()) << text;
  }
}

TEST(SweepSpec, RejectsMalformedAxes) {
  auto reject = [](const std::string& text, const std::string& why_contains) {
    std::string error;
    auto sweep = parse_sweep(text, &error);
    EXPECT_FALSE(sweep.has_value()) << "accepted:\n" << text;
    EXPECT_NE(error.find(why_contains), std::string::npos)
        << "error `" << error << "` does not mention `" << why_contains << "`";
  };
  const std::string base = "graph = clique\nn = 16\nalgorithm = bfs\n";
  reject(base + "sweep.bogus_key = 1,2\n", "unknown key");
  reject(base + "sweep.n = 8,banana\n", "malformed");
  reject(base + "sweep.name = a,b\n", "cannot be a sweep axis");
  reject(base + "sweep.n = 24,32\nsweep.n = 48\n", "duplicate sweep axis");
  reject(base + "sweep.n = 24,,32\n", "empty value");
  reject(base + "sweep. = 1\n", "empty sweep axis key");
  // The first cell must validate: sweeping drop_rate over nonzero values
  // without a base round_limit is a grid-wide mistake, caught at parse time.
  reject(base + "sweep.drop_rate = 0.01,0.05\n", "round_limit");
  // Cross-products above the cap are a parse error, not an hour of CI.
  std::string big = base;
  for (const char* axis : {"n", "m", "k", "a", "seed"})
    big += std::string("sweep.") + axis + " = 1,2,3,4,5,6,7,8\n";
  reject(big, "cells");
}

TEST(ScenarioFaults, PartitionBlocksCrossCutTrafficThenHeals) {
  FaultModel model;
  model.partition_windows = {{0, 3}, {5, 6}};
  model.partition_frac = 0.5;
  NetConfig cfg;
  cfg.n = 64;
  cfg.seed = 17;
  Network net(cfg);
  FaultInjector inj(net, model, /*seed=*/17, /*round_limit=*/1000);
  const auto& side = inj.partition_side();
  ASSERT_EQ(side.size(), 64u);
  uint64_t side_a = 0;
  for (uint8_t s : side) side_a += s;
  EXPECT_GT(side_a, 0u);   // both sides populated at frac 0.5, n = 64
  EXPECT_LT(side_a, 64u);  // (overwhelmingly likely, and fixed by the seed)

  uint64_t cross = 0;
  for (NodeId u = 0; u < 64; ++u) cross += side[u] != side[(u + 1) % 64];
  ASSERT_GT(cross, 0u);

  for (uint64_t round = 0; round < 8; ++round) {
    uint64_t before = net.stats().fault_drops;
    for (NodeId u = 0; u < 64; ++u) net.send(u, (u + 1) % 64, 1, {u});
    net.end_round();
    uint64_t dropped = net.stats().fault_drops - before;
    if (inj.partition_active(round)) {
      // Exactly the cross-cut messages are lost while a window is open...
      EXPECT_EQ(dropped, cross) << "round " << round;
    } else {
      // ...and the network heals completely in between and after.
      EXPECT_EQ(dropped, 0u) << "round " << round;
    }
  }
}

TEST(ScenarioFaults, ByzantineCorruptionIsSeededAndWellFormed) {
  FaultModel model;
  model.byzantine_rate = 0.5;
  auto run = [&](uint64_t seed) {
    NetConfig cfg;
    cfg.n = 64;
    cfg.seed = seed;
    Network net(cfg);
    FaultInjector inj(net, model, seed, 1000);
    std::vector<uint64_t> words;
    for (int round = 0; round < 5; ++round) {
      for (NodeId u = 0; u < 64; ++u)
        net.send(u, (u + 1) % 64, 7, {u, 0xdeadbeef12345678ULL});
      net.end_round();
      for (NodeId u = 0; u < 64; ++u) {
        for (const Message& m : net.inbox(u)) {
          EXPECT_EQ(m.tag, 7u);      // corruption never touches the framing
          EXPECT_EQ(m.nwords, 2u);   // nor the payload arity
          EXPECT_LT(m.word(0), 64u); // id-plausible words stay in [0, n)
          words.push_back(m.word(0));
          words.push_back(m.word(1));
        }
      }
    }
    return std::make_pair(net.stats().corrupted, words);
  };
  auto [c1, w1] = run(11);
  auto [c2, w2] = run(11);
  auto [c3, w3] = run(12);
  EXPECT_EQ(c1, c2);  // same seed: identical corruption decisions
  EXPECT_EQ(w1, w2);  // ...and identical corrupted payloads
  EXPECT_GT(c1, 50u);   // ~160 of 320 messages at rate 0.5
  EXPECT_LT(c1, 270u);
  EXPECT_NE(w1, w3);  // different seed, different mutations
  // No message was dropped — byzantine participants lie, they don't mute.
  EXPECT_EQ(w1.size(), 2u * 5u * 64u);
}

TEST(ScenarioFaults, DropDecisionsAreSeedDeterministic) {
  FaultModel model;
  model.drop_rate = 0.5;
  auto run = [&](uint64_t seed) {
    NetConfig cfg;
    cfg.n = 64;
    cfg.seed = seed;
    Network net(cfg);
    FaultInjector inj(net, model, seed, 1000);
    for (int round = 0; round < 5; ++round) {
      for (NodeId u = 0; u < 64; ++u)
        net.send(u, (u + 1) % 64, 1, {u});
      net.end_round();
    }
    return net.stats().fault_drops;
  };
  uint64_t a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 50u);   // ~160 of 320 at rate 0.5
  EXPECT_LT(a, 270u);
  EXPECT_NE(a, c);  // different seed, different subset (overwhelmingly likely)
}

// Orientation sends a node whose identification sketch was damaged in flight
// straight to the direct resolution: retrying it (q doubling each time) cannot
// repair an aggregate that faults keep damaging. At this seed of the
// gnm_overlay_faults grid, the retries took the bfs cell to 3,380 rounds;
// without them it ends in about 2,000.
TEST(ScenarioFaults, DamagedSketchesSkipTheRetries) {
  ScenarioSpec spec = parse_ok(
      "graph = gnm\nn = 96\nm = 480\nconnect = true\nseed = 32\ncapacity_factor = 16\n"
      "algorithm = bfs\noverlay = butterfly\ndrop_rate = 0.02\nbyzantine_rate = 0.02\n"
      "round_limit = 2600\nexpect = ok,degraded\n");
  RunOptions opts;
  opts.build_json = false;
  ScenarioOutcome out = run_scenario(spec, opts);
  EXPECT_FALSE(out.failed) << out.verdict;
  EXPECT_LT(out.rounds, 2200u);
}

// The node-capacity half of the regression gate: a send over the cap always
// fails a run; a receive load over it only when the overflow went uncounted.
TEST(ScenarioRunner, NodeCapacityCheck) {
  NetStats st;
  st.max_send_load = 8;
  st.max_recv_load = 8;
  EXPECT_TRUE(within_node_capacity(st, 8));
  st.max_send_load = 9;
  EXPECT_FALSE(within_node_capacity(st, 8));
  st.max_send_load = 8;
  st.max_recv_load = 9;
  EXPECT_FALSE(within_node_capacity(st, 8));
  st.messages_dropped = 1;
  EXPECT_TRUE(within_node_capacity(st, 8));
}

namespace {

/// Parse or reject with a message; a spec that parses re-parses from its
/// canonical text to the same text.
void expect_spec_or_error(const std::optional<ScenarioSpec>& spec, const std::string& error,
                          const std::string& input) {
  EXPECT_TRUE(spec || !error.empty()) << "rejected without a message:\n" << input;
  if (!spec) return;
  std::string again_error;
  auto again = parse_spec(spec->to_string(), &again_error);
  ASSERT_TRUE(again) << again_error << "\nfrom:\n" << input;
  EXPECT_EQ(again->to_string(), spec->to_string()) << input;
}

/// One random edit: delete, insert or replace a byte, drop or duplicate a
/// line, or set a `key = value` line's value to an extreme one.
std::string mutate(std::string text, Rng& rng) {
  static const char* const kExtreme[] = {"0", "-1", "4294967296", "1e308", "nan", "inf", ""};
  std::vector<size_t> starts{0}, values;  // line starts; lines holding a value
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '=' && text[starts.back()] != '#' &&
        (values.empty() || values.back() != starts.back()))
      values.push_back(starts.back());
    if (text[i] == '\n' && i + 1 < text.size()) starts.push_back(i + 1);
  }
  const size_t bol = starts[rng.next_below(starts.size())];
  const size_t eol = std::min(text.find('\n', bol), text.size());  // newline excluded
  const size_t at = rng.next_below(text.size() + 1);
  const char byte = static_cast<char>(rng.next_below(256));
  switch (rng.next_below(6)) {
    case 0: return text.erase(at, 1);
    case 1: return text.insert(at, 1, byte);
    case 2: return at < text.size() ? text.replace(at, 1, 1, byte) : text;
    case 3: return text.erase(bol, eol + 1 - bol);
    case 4: return text.insert(bol, text.substr(bol, eol + 1 - bol));
    default: {
      if (values.empty()) return text;
      const size_t line = values[rng.next_below(values.size())];
      const size_t eq = text.find('=', line);
      const size_t end = std::min(text.find('\n', line), text.size());
      return text.replace(eq + 1, end - eq - 1,
                          std::string(" ") + kExtreme[rng.next_below(std::size(kExtreme))]);
    }
  }
}

}  // namespace

// Seeded mutation test of the spec and sweep parsers: 200 mutants (one to
// three random edits each) of every catalog file must parse or be rejected
// with a message, never crash, and so must the first 16 cells of a sweep
// that parses. No graph is built.
TEST(SpecFuzz, MutatedCatalogParsesOrRejects) {
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"scenarios", "scenarios/sweeps", "scenarios/table1"})
    for (const auto& entry :
         std::filesystem::directory_iterator(std::filesystem::path(NCC_SOURCE_DIR) / dir))
      if (entry.path().extension() == ".scn") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 20u);

  Rng rng(0x5eedf022);
  size_t parsed = 0;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    for (int m = 0; m < 200; ++m) {
      std::string mutant = text;
      for (uint64_t edits = 1 + rng.next_below(3); edits > 0; --edits)
        mutant = mutate(std::move(mutant), rng);
      std::string error;
      auto spec = parse_spec(mutant, &error);
      parsed += spec.has_value();
      expect_spec_or_error(spec, error, mutant);
      error.clear();
      auto sweep = parse_sweep(mutant, &error);
      EXPECT_TRUE(sweep || !error.empty()) << "rejected without a message:\n" << mutant;
      for (uint64_t c = 0; sweep && c < std::min<uint64_t>(sweep->cells(), 16); ++c) {
        error.clear();
        expect_spec_or_error(expand_sweep_cell(*sweep, c, &error), error, mutant);
      }
      if (HasFatalFailure()) return;
    }
  }
  // The mutants exercise the accepting paths too, not only the rejections.
  EXPECT_GT(parsed, files.size() * 20);
}
