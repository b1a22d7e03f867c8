// ncc_bench — the repository benchmark. One process runs one workload
// (workloads/NAME.scn) in a closed loop at threads = 1 and reports its
// end-to-end metrics, or, with --trace, the per-layer breakdown of traced
// runs. --compare judges two sets of invocations against the bounds in
// BENCHMARK.json.
//
//   ncc_bench --workload NAME --seed S [--seconds T] [--json OUT] [--trace TRACE.json]
//   ncc_bench --compare A.json B.json
//
// The workloads are the spec files in workloads/. A pass runs every instance
// of the workload once. Instance k is the spec with seed S + k *
// kInstanceSeedStride. Each instance run is set-up (parse the spec,
// build_graph, construct Network + Engine) followed by the registry adapter
// (simulation plus verification against src/baselines). Instance 0 runs
// once as an untimed warm-up; passes then repeat until T seconds have
// passed since the start. A timing is reported as the sum over instances of
// each instance's median, i.e. the time of one pass, robust to a few slow
// runs. The benchmark reaches the program only through scenario parsing,
// the algorithm registry, Network, Engine, round hooks and obs::Tracer, so
// refactors below those entry points cannot change what it runs.
//
// Untraced runs attach no observer at all. With --trace every instance run
// is paired with a traced run of the same instance right beside it; the
// traced run attaches an obs::Tracer and a round hook that stamps host time
// at every round close, and each round's host time goes to the deepest span
// covering it, which gives per-layer self time that sums exactly to the
// traced run. The median ratio of the pairs is the tracing overhead.
//
// Every run of one instance must reproduce the same verdict, rounds,
// messages and adapter counters, traced or not; a mismatch fails the run and
// is printed by name.
//
// Output: `name value unit` lines, then one JSON line
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics, or
// the per-layer ones with --trace. --json appends one JSON record per
// invocation (with quartiles) to OUT; --compare reads those records. Exit 0
// when every run verified, 1 when one failed, 2 on usage errors.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "engine/engine.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"
#include "obs/json_check.hpp"
#include "obs/tracer.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

#ifndef NCC_BENCH_WORKLOADS
#error "NCC_BENCH_WORKLOADS must name the workload spec directory"
#endif

using namespace ncc;
using Clock = std::chrono::steady_clock;

namespace {

/// Workloads whose pass runs more than one independently seeded instance.
/// The algorithms are randomized: the rounds of one MST instance vary by
/// about 18% (coefficient of variation) from seed to seed, so mst_gnm sums
/// 48 instances, which brings the quartile spread of ten seeds' sums to
/// about 4%.
constexpr std::pair<const char*, uint32_t> kInstances[] = {{"mst_gnm", 48}};

uint32_t instances_of(const std::string& workload) {
  for (const auto& [name, count] : kInstances)
    if (workload == name) return count;
  return 1;
}

/// The workload names: the spec files in the workload directory, sorted.
std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(NCC_BENCH_WORKLOADS))
    if (entry.path().extension() == ".scn") names.push_back(entry.path().stem().string());
  std::sort(names.begin(), names.end());
  return names;
}

/// Instance k of seed S runs with seed S + k * stride; the stride keeps the
/// instance seeds of nearby --seed values disjoint.
constexpr uint64_t kInstanceSeedStride = 1000003;
/// Large enough for every workload; a truncated span stream fails the run.
constexpr size_t kMaxSpans = size_t{1} << 22;
/// --compare judges a timing only from at least this many invocations a
/// side: the host's slow spells last longer than one invocation, so the
/// spread inside one invocation understates the spread between sets.
constexpr size_t kMinInvocations = 5;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Shortest round-trip decimal form: the value with all its digits.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name, unit;
  double value = 0.0;
  // Quartiles of the samples; equal to value for per-run counts.
  double p25 = 0.0, p75 = 0.0;
  uint64_t samples = 1;
  // A count the simulation fixes for a given seed: any change is real.
  bool exact = false;
};

Metric count_metric(std::string name, std::string unit, double v, bool exact) {
  return {std::move(name), std::move(unit), v, v, v, 1, exact};
}

Metric timed_metric(std::string name, std::string unit, const std::vector<double>& v) {
  return {std::move(name), std::move(unit), percentile(v, 50), percentile(v, 25),
          percentile(v, 75), v.size()};
}

/// `"name": {"value": v, "unit": u[, "p25", "p75", "n", "exact"]}` members.
std::string metrics_json(const std::vector<Metric>& ms, bool with_spread) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
         ", \"unit\": \"" + m.unit + "\"";
    if (with_spread)
      s += ", \"p25\": " + num(m.p25) + ", \"p75\": " + num(m.p75) +
           ", \"n\": " + std::to_string(m.samples) + (m.exact ? ", \"exact\": true" : "");
    s += "}";
  }
  return s + "}";
}

// ------------------------------------------------------ determinism check

/// What every run of one instance must reproduce exactly.
struct Signature {
  bool ok = false;
  std::string verdict;
  uint64_t rounds = 0, messages = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// Names the fields in which `got` differs from `want` (empty when equal).
std::string signature_diff(const Signature& want, const Signature& got) {
  std::string d;
  auto field = [&](const std::string& name, const std::string& a, const std::string& b) {
    if (a != b) d += " " + name + " " + a + " -> " + b;
  };
  field("verdict", want.verdict, got.verdict);
  field("rounds", std::to_string(want.rounds), std::to_string(got.rounds));
  field("messages", std::to_string(want.messages), std::to_string(got.messages));
  auto list = [](const Signature& sig) {
    std::string s;
    for (const auto& [k, v] : sig.counters) s += k + "=" + std::to_string(v) + ",";
    return s;
  };
  field("counters", list(want), list(got));
  return d;
}

uint64_t counter(const Signature& sig, const std::string& name) {
  for (const auto& [k, v] : sig.counters)
    if (k == name) return v;
  return 0;
}

// -------------------------------------------------- per-layer attribution

/// Span name -> per-layer metric prefix. Spans not listed (such as ones a
/// later change adds) fold into `other` and are listed by name.
constexpr std::pair<const char*, const char*> kSpanLayer[] = {
    {"route.down", "overlay.route_down"},
    {"route.up", "overlay.route_up"},
    {"aggregation", "primitives.aggregation"},
    {"multicast", "primitives.multicast"},
    {"multicast.setup", "primitives.multicast_setup"},
    {"aggregate_broadcast", "primitives.aggregate_broadcast"},
    {"sync_barrier", "primitives.sync_barrier"},
    {"setup.orientation", "core.orientation"},
    {"identification", "core.identification"},
    {"setup.broadcast_trees", "core.broadcast_trees"},
    {"neighborhood_exchange", "core.neighborhood_exchange"},
    {"gossip", "core.algorithm"},
    {"broadcast", "core.algorithm"},
    {"bfs", "core.algorithm"},
    {"bfs.phase", "core.algorithm"},
    {"mis", "core.algorithm"},
    {"matching", "core.algorithm"},
    {"coloring", "core.algorithm"},
    {"mst", "core.algorithm"},
    {"components", "core.algorithm"},
};

/// Every reported layer, in kSpanLayer order, then `other`.
std::vector<std::string> layer_names() {
  std::vector<std::string> names;
  for (const auto& [span, layer] : kSpanLayer)
    if (std::find(names.begin(), names.end(), layer) == names.end()) names.push_back(layer);
  names.push_back("other");
  return names;
}

const char* layer_of(const std::string& span) {
  for (const auto& [name, layer] : kSpanLayer)
    if (span == name) return layer;
  return "other";
}

struct LayerStat {
  double self_ms = 0.0;
  uint64_t rounds = 0, messages = 0;
};

/// One traced pass, summed over its instances.
struct TraceSample {
  std::map<std::string, LayerStat> layers;
  std::vector<double> round_us;
  uint64_t rounds = 0, idle_rounds = 0, messages = 0;
  double verify_ms = 0.0, unattributed_ms = 0.0;
  double stage_ms = 0.0, merge_ms = 0.0, deliver_ms = 0.0;
  uint64_t peak_bytes = 0, allocs = 0, dropped = 0, max_recv_load = 0;
  uint64_t cache_hits = 0, cache_lookups = 0, cache_evictions = 0, misrouted = 0;
  std::set<std::string> other_spans;  // span names that fell into `other`
};

/// Host-time probe of a traced run: a round hook stamps steady_clock and the
/// cumulative message count at every round close. Round r's host time is
/// the gap since the previous stamp (since the adapter call for the first
/// round), so work done before a round, such as building the overlay, lands
/// in that round.
class RoundClock {
 public:
  explicit RoundClock(Network& net) : net_(net) {
    id_ = net_.add_round_hook([this](uint64_t, const NetStats& st) {
      stamps_.push_back(Clock::now());
      sent_.push_back(st.messages_sent);
    });
  }
  ~RoundClock() { net_.remove_round_hook(id_); }
  RoundClock(const RoundClock&) = delete;
  RoundClock& operator=(const RoundClock&) = delete;

  const std::vector<Clock::time_point>& stamps() const { return stamps_; }
  const std::vector<uint64_t>& sent() const { return sent_; }

 private:
  Network& net_;
  std::vector<Clock::time_point> stamps_;
  std::vector<uint64_t> sent_;
  Network::HookId id_ = 0;
};

/// A span as a host-time Chrome trace event of run number `run`.
struct SpanEvent {
  std::string name;
  int64_t parent;
  uint64_t ts_us, dur_us, rounds, messages, run;
};

/// Attributes every round of one traced instance run to the deepest span
/// covering it, and converts the spans to host-time events relative to the
/// adapter call.
void attribute(const std::vector<obs::SpanRecord>& spans, const RoundClock& clock,
               Clock::time_point start, Clock::time_point end, NodeId n, uint64_t run,
               TraceSample* out, std::vector<SpanEvent>* events) {
  const std::vector<Clock::time_point>& stamps = clock.stamps();
  const uint64_t rounds = stamps.size();
  std::vector<const char*> layer(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    layer[i] = layer_of(spans[i].name);
    if (std::string_view(layer[i]) == "other") out->other_spans.insert(spans[i].name);
  }
  // Spans are in begin order, so a nested span overwrites its ancestors.
  std::vector<int64_t> owner(rounds, -1);
  for (size_t i = 0; i < spans.size(); ++i)
    for (uint64_t r = spans[i].begin_round; r < std::min(spans[i].end_round, rounds); ++r)
      owner[r] = static_cast<int64_t>(i);

  Clock::time_point prev = start;
  uint64_t prev_sent = 0;
  for (uint64_t r = 0; r < rounds; ++r) {
    double dt = ms_between(prev, stamps[r]);
    uint64_t msgs = clock.sent()[r] - prev_sent;
    prev = stamps[r];
    prev_sent = clock.sent()[r];
    out->round_us.push_back(dt * 1e3);
    out->idle_rounds += msgs < n;
    if (owner[r] < 0) {
      out->unattributed_ms += dt;
      continue;
    }
    LayerStat& ls = out->layers[layer[static_cast<size_t>(owner[r])]];
    ls.self_ms += dt;
    ls.rounds += 1;
    ls.messages += msgs;
  }
  out->rounds += rounds;
  out->verify_ms += ms_between(prev, end);

  if (!events) return;
  auto host_at = [&](uint64_t round) {  // host time when `round` began
    return round == 0 ? start : stamps[std::min(round, rounds) - 1];
  };
  auto us = [&](Clock::time_point t) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - start).count());
  };
  for (const obs::SpanRecord& s : spans) {
    uint64_t b = us(host_at(s.begin_round)), e = us(host_at(s.end_round));
    events->push_back(
        {s.name, s.parent, b, e - b, s.end_round - s.begin_round, s.messages, run});
  }
}

// ------------------------------------------------------------ the runner

struct Options {
  std::string workload;
  uint32_t instances = 1;
  uint64_t seed = 0;
  double seconds = 20.0;
  std::string json_out;
  std::string trace_out;
};

/// Timings of one instance run.
struct RunTimes {
  double setup_s = 0.0, graph_ms = 0.0, network_ms = 0.0, run_s = 0.0;
};

/// A batch timing: the sum over instances of each instance's median (and
/// quartiles) of one field, i.e. what one pass over the instances takes.
Metric batch_metric(std::string name, std::string unit,
                    const std::vector<std::vector<RunTimes>>& runs, double RunTimes::*field) {
  Metric m{std::move(name), std::move(unit), 0.0, 0.0, 0.0, 0};
  for (const std::vector<RunTimes>& inst : runs) {
    std::vector<double> v;
    for (const RunTimes& t : inst) v.push_back(t.*field);
    m.value += percentile(v, 50);
    m.p25 += percentile(v, 25);
    m.p75 += percentile(v, 75);
    m.samples += v.size();
  }
  return m;
}

class Bench {
 public:
  explicit Bench(const Options& opts)
      : opts_(opts),
        spec_path_(std::string(NCC_BENCH_WORKLOADS) + "/" + opts.workload + ".scn"),
        refs_(opts.instances),
        untraced_(opts.instances) {}

  /// Parses the workload once to reject a bad spec before any timing.
  bool load(std::string* error) {
    auto spec = scenario::parse_spec_file(spec_path_, error);
    if (!spec) return false;
    algo_ = scenario::find_algorithm(spec->algorithm);
    if (!algo_) {
      *error = "unknown algorithm `" + spec->algorithm + "`";
      return false;
    }
    if (spec->faults.any() || spec->expect != "ok") {
      *error = "benchmark workloads must be fault-free with expect = ok";
      return false;
    }
    return true;
  }

  /// The closed loop: a warm-up run, then passes over the instances until
  /// the time budget is spent. The run may stop after any instance once
  /// every instance has an untraced sample and, when tracing, one traced
  /// pass has completed.
  ///
  /// When tracing, each instance runs untraced and traced back to back, so
  /// the pair sees the same host conditions and its ratio isolates the cost
  /// of tracing. The second run of a pair can profit from the first (warm
  /// allocator and caches), so the order alternates by pass and instance,
  /// and the overhead averages the two orders' medians.
  void run() {
    const Clock::time_point start = Clock::now();
    const bool tracing = !opts_.trace_out.empty();
    run_instance(0, nullptr, nullptr);  // warm-up, untimed
    // The peak resident set is read once the first run has ended: what one
    // run of the workload needs. Later in the loop it creeps up by a few MiB
    // from allocator reuse across runs, by an amount that follows how many
    // runs the host's speed allowed rather than the program.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    for (uint64_t pass = 0;; ++pass) {
      TraceSample sample;
      for (uint32_t k = 0; k < opts_.instances; ++k) {
        if (!tracing) {
          untraced_[k].push_back(run_instance(k, nullptr, nullptr));
        } else {
          // The first pass is also written out as a Chrome trace.
          std::vector<SpanEvent>* events = pass == 0 ? &events_.emplace_back() : nullptr;
          const uint64_t order = (pass + k) % 2;  // 0: untraced first
          RunTimes plain, traced;
          if (order == 0) plain = run_instance(k, nullptr, nullptr);
          traced = run_instance(k, &sample, events);
          if (order == 1) plain = run_instance(k, nullptr, nullptr);
          untraced_[k].push_back(plain);
          overhead_[order].push_back(traced.run_s / plain.run_s - 1.0);
          if (k + 1 == opts_.instances) samples_.push_back(std::move(sample));
        }
        const bool covered = !untraced_.back().empty() && (!tracing || !samples_.empty());
        if (covered && ms_between(start, Clock::now()) >= opts_.seconds * 1e3) return;
      }
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  std::vector<Metric> end_to_end() const {
    uint64_t rounds = 0, messages = 0;
    for (const auto& ref : refs_) {
      rounds += ref ? ref->rounds : 0;
      messages += ref ? ref->messages : 0;
    }
    // The share of runs that verified and matched the instance's first run.
    // It is listed in BENCHMARK.json in place of failed_frac, which is 0 on
    // every correct build and so cannot be a gated metric.
    const double ok_frac =
        static_cast<double>(attempted_ - failed_) / static_cast<double>(attempted_);
    return {batch_metric("setup_s", "s", untraced_, &RunTimes::setup_s),
            batch_metric("run_s", "s", untraced_, &RunTimes::run_s),
            count_metric("rounds", "rounds", static_cast<double>(rounds), true),
            count_metric("messages", "msgs", static_cast<double>(messages), true),
            count_metric("max_rss_mb", "MiB", rss_mb_, false),
            count_metric("ok_frac", "fraction", ok_frac, true)};
  }

  /// Per-layer metrics: the median over traced passes of each one.
  std::vector<Metric> per_layer() const {
    std::map<std::string, std::vector<double>> vals;
    std::vector<std::pair<std::string, std::string>> order;  // name, unit
    auto put = [&](const std::string& name, const std::string& unit, double v) {
      auto [it, fresh] = vals.try_emplace(name);
      if (fresh) order.emplace_back(name, unit);
      it->second.push_back(v);
    };
    for (const TraceSample& s : samples_) {
      for (const std::string& layer : layer_names()) {
        auto it = s.layers.find(layer);
        LayerStat ls = it == s.layers.end() ? LayerStat{} : it->second;
        put(layer + ".self_ms", "ms", ls.self_ms);
        put(layer + ".rounds", "rounds", static_cast<double>(ls.rounds));
        put(layer + ".messages", "msgs", static_cast<double>(ls.messages));
      }
      put("overlay.cache.hit_ratio", "ratio",
          s.cache_lookups ? static_cast<double>(s.cache_hits) / static_cast<double>(s.cache_lookups)
                          : 0.0);
      put("overlay.cache.evictions", "count", static_cast<double>(s.cache_evictions));
      put("overlay.misrouted", "count", static_cast<double>(s.misrouted));
      put("engine.stage_ms", "ms", s.stage_ms);
      put("engine.merge_ms", "ms", s.merge_ms);
      put("engine.deliver_ms", "ms", s.deliver_ms);
      put("net.round_us_p50", "us", percentile(s.round_us, 50));
      put("net.round_us_p99", "us", percentile(s.round_us, 99));
      double r = static_cast<double>(std::max<uint64_t>(s.rounds, 1));
      put("net.msgs_per_round", "msgs/round", static_cast<double>(s.messages) / r);
      put("net.idle_round_frac", "fraction", static_cast<double>(s.idle_rounds) / r);
      put("net.peak_bytes", "bytes", static_cast<double>(s.peak_bytes));
      put("net.allocs", "count", static_cast<double>(s.allocs));
      put("net.dropped", "msgs", static_cast<double>(s.dropped));
      put("net.max_recv_load", "msgs", static_cast<double>(s.max_recv_load));
      put("run.verify_ms", "ms", s.verify_ms);
      put("run.unattributed_ms", "ms", s.unattributed_ms);
    }
    std::vector<Metric> out;
    for (const auto& [name, unit] : order) out.push_back(timed_metric(name, unit, vals[name]));
    out.push_back(batch_metric("setup.graph_ms", "ms", untraced_, &RunTimes::graph_ms));
    out.push_back(batch_metric("setup.network_ms", "ms", untraced_, &RunTimes::network_ms));
    // The mean over the two pair orders of each order's median (and
    // quartiles), which cancels the advantage of running second.
    Metric overhead{"trace.overhead_frac", "fraction", 0.0, 0.0, 0.0, 0};
    for (const std::vector<double>& o : overhead_) {
      const Metric m = timed_metric("", "", o.empty() ? overhead_[0] : o);
      overhead.value += m.value / 2;
      overhead.p25 += m.p25 / 2;
      overhead.p75 += m.p75 / 2;
      overhead.samples += o.size();
    }
    out.push_back(overhead);
    return out;
  }

  std::set<std::string> other_spans() const {
    std::set<std::string> names;
    for (const TraceSample& s : samples_) names.insert(s.other_spans.begin(), s.other_spans.end());
    return names;
  }

  bool write_trace(const std::string& path) const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (size_t k = 0; k < events_.size(); ++k) {
      const uint64_t pid = k + 1;
      auto meta = [&](const char* name, uint64_t tid, const std::string& label) {
        w.begin_object();
        w.kv("ph", "M");
        w.kv("pid", pid);
        w.kv("tid", tid);
        w.kv("name", name);
        w.key("args");
        w.begin_object();
        w.kv("name", label);
        w.end_object();
        w.end_object();
      };
      meta("process_name", 0,
           opts_.workload + " instance " + std::to_string(k) + " seed " +
               std::to_string(instance_seed(static_cast<uint32_t>(k))));
      meta("thread_name", 1, "spans (host time)");
      for (size_t i = 0; i < events_[k].size(); ++i) {
        const SpanEvent& e = events_[k][i];
        w.begin_object();
        w.kv("ph", "X");
        w.kv("pid", pid);
        w.kv("tid", uint64_t{1});
        w.kv("name", e.name);
        w.kv("ts", e.ts_us);
        w.kv("dur", e.dur_us);
        w.key("args");
        w.begin_object();
        w.kv("rep", e.run);
        w.kv("index", static_cast<uint64_t>(i));
        w.kv("parent", e.parent);
        w.kv("rounds", e.rounds);
        w.kv("messages", e.messages);
        w.end_object();
        w.end_object();
      }
    }
    w.end_array();
    w.end_object();
    std::ofstream os(path);
    os << w.str() << "\n";
    return static_cast<bool>(os);
  }

 private:
  uint64_t instance_seed(uint32_t k) const { return opts_.seed + k * kInstanceSeedStride; }

  /// One instance run: set-up, then the adapter. Checks the outcome against
  /// the instance's first run and counts it as attempted / failed.
  RunTimes run_instance(uint32_t k, TraceSample* sample, std::vector<SpanEvent>* events) {
    RunTimes t;
    std::string error;
    const Clock::time_point t0 = Clock::now();
    std::optional<scenario::ScenarioSpec> spec = scenario::parse_spec_file(spec_path_, &error);
    if (!spec) fatal(error);
    spec->seed = instance_seed(k);
    std::optional<Graph> g = scenario::build_graph(*spec, &error);
    if (!g) fatal(error);
    const Clock::time_point t1 = Clock::now();
    NetConfig cfg;
    cfg.n = g->n();
    cfg.capacity_factor = spec->capacity_factor;
    cfg.seed = spec->seed;
    cfg.strict_send = !spec->faults.any();
    Network net(cfg);
    Engine engine(net, EngineConfig{spec->threads});
    const Clock::time_point t2 = Clock::now();
    t.graph_ms = ms_between(t0, t1);
    t.network_ms = ms_between(t1, t2);
    t.setup_s = ms_between(t0, t2) / 1e3;

    std::optional<obs::Tracer> tracer;
    std::optional<RoundClock> clock;
    if (sample) {
      tracer.emplace(net, kMaxSpans);
      clock.emplace(net);
    }
    Signature sig;
    const Clock::time_point t3 = Clock::now();
    try {
      scenario::ScenarioRunResult r = algo_(net, *g, *spec);
      sig.ok = r.ok;
      sig.verdict = r.verdict;
      sig.counters = std::move(r.counters);
    } catch (const std::exception& e) {
      sig.verdict = std::string("error:") + e.what();
    }
    const Clock::time_point t4 = Clock::now();
    t.run_s = ms_between(t3, t4) / 1e3;
    sig.rounds = net.stats().rounds;
    sig.messages = net.stats().messages_sent;

    ++attempted_;
    std::string why;
    if (!sig.ok) why = " verdict " + sig.verdict;
    if (!refs_[k]) {
      refs_[k] = sig;
    } else {
      why += signature_diff(*refs_[k], sig);
    }
    if (sample) {
      if (tracer->truncated()) why += " span stream truncated";
      attribute(tracer->spans(), *clock, t3, t4, g->n(), attempted_, sample, events);
      record_net(net, engine, sig, sample);
    }
    if (!why.empty()) {
      ++failed_;
      std::fprintf(stderr, "ncc_bench: %s instance %u seed %llu run %llu failed:%s\n",
                   opts_.workload.c_str(), k, static_cast<unsigned long long>(spec->seed),
                   static_cast<unsigned long long>(attempted_), why.c_str());
    }
    return t;
  }

  static void record_net(const Network& net, const Engine& engine, const Signature& sig,
                         TraceSample* s) {
    const NetStats& st = net.stats();
    s->messages += st.messages_sent;
    s->dropped += st.messages_dropped;
    s->max_recv_load = std::max<uint64_t>(s->max_recv_load, st.max_recv_load);
    uint64_t peak = net.mem_stats().container_bytes_peak;
    s->allocs += net.mem_stats().allocs;
    for (const EngineShardMemory& m : engine.shard_memory()) {
      peak += m.staged_bytes_peak;
      s->allocs += m.allocs;
    }
    s->peak_bytes = std::max(s->peak_bytes, peak);
    for (const EngineShardTiming& tm : engine.shard_timing()) {
      s->stage_ms += static_cast<double>(tm.stage_ns) / 1e6;
      s->merge_ms += static_cast<double>(tm.merge_ns) / 1e6;
      s->deliver_ms += static_cast<double>(tm.deliver_ns) / 1e6;
    }
    s->cache_hits += counter(sig, "cache_hits");
    s->cache_lookups += counter(sig, "cache_hits") + counter(sig, "cache_misses");
    s->cache_evictions += counter(sig, "cache_evictions");
    s->misrouted += counter(sig, "misrouted");
  }

  [[noreturn]] static void fatal(const std::string& why) {
    std::fprintf(stderr, "ncc_bench: %s\n", why.c_str());
    std::exit(2);
  }

  const Options& opts_;
  const std::string spec_path_;
  scenario::ScenarioRunFn algo_ = nullptr;
  std::vector<std::optional<Signature>> refs_;  // per instance: first run
  std::vector<std::vector<RunTimes>> untraced_;  // per instance
  std::vector<double> overhead_[2];  // traced / untraced run_s - 1, per pair, by order
  std::vector<TraceSample> samples_;             // one per completed traced pass
  std::vector<std::vector<SpanEvent>> events_;   // first traced pass, per instance
  uint64_t attempted_ = 0, failed_ = 0;
  double rss_mb_ = 0.0;  // peak resident set after the warm-up run
};

// ---------------------------------------------------------------- compare

/// One end-to-end metric's entry in BENCHMARK.json.
struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

/// What --compare reads from BENCHMARK.json, the one place the workload
/// list and the bounds are written down.
struct BenchmarkFile {
  std::vector<std::string> workloads;
  std::vector<Bound> bounds;
};

bool read_file(const std::string& path, std::string* text) {
  std::ifstream is(path);
  if (!is) return false;
  std::stringstream buf;
  buf << is.rdbuf();
  *text = buf.str();
  return true;
}

bool load_benchmark(const std::string& path, BenchmarkFile* out, std::string* error) {
  std::string text;
  obs::JsonValue doc;
  if (!read_file(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  if (!obs::json_parse(text, &doc, error)) return false;
  const obs::JsonValue* workloads = doc.find("workloads");
  const obs::JsonValue* e2e = doc.find("end_to_end");
  if (!workloads || !workloads->is_array() || !e2e || !e2e->is_array()) {
    *error = path + ": no workloads or end_to_end array";
    return false;
  }
  for (const obs::JsonValue& w : workloads->array) {
    const obs::JsonValue* name = w.find("name");
    if (!name || !name->is_string()) {
      *error = path + ": workload entry without a name";
      return false;
    }
    out->workloads.push_back(name->string);
  }
  for (const obs::JsonValue& m : e2e->array) {
    const obs::JsonValue* name = m.find("name");
    const obs::JsonValue* better = m.find("better");
    const obs::JsonValue* bound = m.find("bound");
    if (!name || !name->is_string() || !better || !better->is_string() || !bound ||
        !bound->is_number()) {
      *error = path + ": end_to_end entry without name/better/bound";
      return false;
    }
    out->bounds.push_back({name->string, better->string == "lower", bound->number});
  }
  return true;
}

/// The invocations of one workload in one records file. They must share
/// the seed, the instance count and whether they were traced, and so must
/// the two sides of a comparison: across seeds the inputs differ, and that
/// difference is not a change of the program.
struct Invocations {
  double seed = 0.0, instances = 0.0;
  bool trace = false;
  std::vector<obs::JsonValue> records;

  bool same_setup(const Invocations& o) const {
    return seed == o.seed && instances == o.instances && trace == o.trace;
  }
};

/// Run records by workload: one JSON object per line, as --json appends.
bool load_records(const std::string& path, std::map<std::string, Invocations>* out,
                  std::string* error) {
  std::string text;
  if (!read_file(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream ss(text);
  std::string line;
  for (int lineno = 1; std::getline(ss, line); ++lineno) {
    if (line.empty()) continue;
    obs::JsonValue rec;
    std::string why;
    const obs::JsonValue *workload = nullptr, *seed = nullptr, *instances = nullptr,
                         *trace = nullptr;
    const std::string where = path + ":" + std::to_string(lineno) + ": ";
    if (!obs::json_parse(line, &rec, &why) || !(workload = rec.find("workload")) ||
        !workload->is_string() || !(seed = rec.find("seed")) || !seed->is_number() ||
        !(instances = rec.find("instances")) || !instances->is_number() ||
        !(trace = rec.find("trace")) || trace->kind != obs::JsonValue::Kind::Bool ||
        !rec.find("metrics")) {
      *error = where + "not a run record " + why;
      return false;
    }
    Invocations inv{seed->number, instances->number, trace->boolean, {}};
    auto it = out->try_emplace(workload->string, inv).first;
    if (!it->second.same_setup(inv)) {
      *error = where + "workload " + workload->string +
               " mixes seeds, instance counts or traced and untraced runs";
      return false;
    }
    it->second.records.push_back(std::move(rec));
  }
  return true;
}

/// One metric's value in every invocation (empty when a record lacks it),
/// and whether the records mark it as exact.
std::vector<double> metric_values(const Invocations& inv, const std::string& name,
                                  bool* exact) {
  std::vector<double> values;
  for (const obs::JsonValue& rec : inv.records) {
    const obs::JsonValue* m = rec.find("metrics")->find(name);
    const obs::JsonValue* v = m ? m->find("value") : nullptr;
    if (!v || !v->is_number()) return {};
    const obs::JsonValue* e = m->find("exact");
    *exact |= e && e->kind == obs::JsonValue::Kind::Bool && e->boolean;
    values.push_back(v->number);
  }
  return values;
}

/// Quartile distance over the median.
double spread_of(const std::vector<double>& v) {
  const double med = percentile(v, 50);
  return med != 0.0 ? (percentile(v, 75) - percentile(v, 25)) / std::fabs(med) : 0.0;
}

/// Baseline set A against candidate set B, per (workload, metric). Each
/// side is the median over its invocations. A timing is unresolved when a
/// side has fewer than kMinInvocations invocations or when either side's
/// spread between invocations exceeds the bound; otherwise it is worse or
/// better when the medians differ by more than the bound, else within. An
/// exact count must read the same in every invocation of a side (else it is
/// unstable) and any difference between the sides is worse or better.
/// Exit 1 on any worse, unstable, missing or unlisted result.
int compare(const std::string& a_path, const std::string& b_path) {
  BenchmarkFile bench;
  std::map<std::string, Invocations> a, b;
  std::string error;
  if (!load_benchmark("BENCHMARK.json", &bench, &error) || !load_records(a_path, &a, &error) ||
      !load_records(b_path, &b, &error)) {
    std::fprintf(stderr, "ncc_bench --compare: %s\n", error.c_str());
    return 2;
  }
  for (const auto& [workload, inv] : a) {
    auto it = b.find(workload);
    if (it != b.end() && !inv.same_setup(it->second)) {
      std::fprintf(stderr,
                   "ncc_bench --compare: A and B ran %s with different seeds, instance "
                   "counts or tracing\n",
                   workload.c_str());
      return 2;
    }
  }
  int bad = 0;
  std::printf("%-14s %-12s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A", "B",
              "delta", "spread", "n A/B", "verdict");
  for (const auto* side : {&a, &b})
    for (const auto& [workload, inv] : *side)
      if (std::find(bench.workloads.begin(), bench.workloads.end(), workload) ==
          bench.workloads.end()) {
        std::printf("%-14s not listed in BENCHMARK.json\n", workload.c_str());
        ++bad;
      }
  for (const std::string& workload : bench.workloads) {
    auto ia = a.find(workload), ib = b.find(workload);
    for (const Bound& bd : bench.bounds) {
      bool exact = false;
      std::vector<double> va, vb;
      if (ia != a.end()) va = metric_values(ia->second, bd.name, &exact);
      if (ib != b.end()) vb = metric_values(ib->second, bd.name, &exact);
      if (va.empty() || vb.empty()) {
        std::printf("%-14s %-12s %14s %14s %9s %8s %7s  missing\n", workload.c_str(),
                    bd.name.c_str(), "-", "-", "-", "-", "-");
        ++bad;
        continue;
      }
      const double ma = percentile(va, 50), mb = percentile(vb, 50);
      const double delta = ma != 0.0 ? (mb - ma) / ma : 0.0;
      const double cost = bd.lower_is_better ? delta : -delta;  // > 0 is a regression
      const double spread = std::max(spread_of(va), spread_of(vb));
      const bool few = std::min(va.size(), vb.size()) < kMinInvocations;
      const char* verdict;
      if (exact) {
        auto steady = [](const std::vector<double>& v) {
          return std::all_of(v.begin(), v.end(), [&](double x) { return x == v.front(); });
        };
        verdict = !steady(va) || !steady(vb) ? "unstable"
                  : cost > 0.0               ? "worse"
                  : cost < 0.0               ? "better"
                                             : "within";
      } else {
        verdict = few || spread > bd.bound ? "unresolved"
                  : cost > bd.bound        ? "worse"
                  : cost < -bd.bound       ? "better"
                                           : "within";
      }
      bad += std::string(verdict) == "worse" || std::string(verdict) == "unstable";
      const std::string n = std::to_string(va.size()) + "/" + std::to_string(vb.size());
      const std::string note =
          exact ? "exact"
          : few ? "fewer than " + std::to_string(kMinInvocations) + " invocations"
                : "bound " + num(100 * bd.bound) + "%";
      std::printf("%-14s %-12s %14.6g %14.6g %+8.2f%% %7.2f%% %7s  %s (%s)\n", workload.c_str(),
                  bd.name.c_str(), ma, mb, 100 * delta, 100 * spread, n.c_str(), verdict,
                  note.c_str());
    }
  }
  return bad ? 1 : 0;
}

// ------------------------------------------------------------------ main

int usage() {
  std::fprintf(stderr,
               "usage: ncc_bench --workload NAME --seed S [--seconds T] [--json OUT] "
               "[--trace TRACE.json]\n"
               "       ncc_bench --compare A.json B.json   (run from the repo root)\n"
               "workloads:");
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s %s %s", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
    if (m.samples > 1)
      std::printf("  (p25 %s, p75 %s, n=%llu)", num(m.p25).c_str(), num(m.p75).c_str(),
                  static_cast<unsigned long long>(m.samples));
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--compare" && i + 2 < argc) return compare(argv[i + 1], argv[i + 2]);
    if (i + 1 >= argc) return usage();
    std::string val = argv[++i];
    if (flag == "--workload") {
      const std::vector<std::string> names = workload_names();
      if (std::find(names.begin(), names.end(), val) == names.end()) return usage();
      opts.workload = val;
      opts.instances = instances_of(val);
    } else if (flag == "--seed") {
      auto [p, ec] = std::from_chars(val.data(), val.data() + val.size(), opts.seed);
      if (ec != std::errc() || p != val.data() + val.size()) return usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opts.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0.0 && opts.seconds <= 3600.0)) return usage();
    } else if (flag == "--json") {
      opts.json_out = val;
    } else if (flag == "--trace") {
      opts.trace_out = val;
    } else {
      return usage();
    }
  }
  if (opts.workload.empty() || !have_seed) return usage();

  Bench bench(opts);
  std::string error;
  if (!bench.load(&error)) {
    std::fprintf(stderr, "ncc_bench: %s\n", error.c_str());
    return 2;
  }
  bench.run();

  const bool traced = !opts.trace_out.empty();
  std::vector<Metric> e2e = bench.end_to_end();
  std::vector<Metric> layers = traced ? bench.per_layer() : std::vector<Metric>{};
  bool correct = bench.failed() == 0;
  std::printf("workload %s seed %llu instances %u runs %llu (first is the warm-up)\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.instances, static_cast<unsigned long long>(bench.attempted()));
  print_metrics(e2e);
  std::printf("failed_frac %s fraction\n",
              num(static_cast<double>(bench.failed()) / static_cast<double>(bench.attempted()))
                  .c_str());
  if (traced) {
    print_metrics(layers);
    for (const std::string& s : bench.other_spans()) std::printf("other span: %s\n", s.c_str());
    if (!bench.write_trace(opts.trace_out)) {
      std::fprintf(stderr, "ncc_bench: cannot write %s\n", opts.trace_out.c_str());
      correct = false;
    }
  }
  const std::vector<Metric>& reported = traced ? layers : e2e;
  if (!opts.json_out.empty()) {
    std::vector<Metric> all = e2e;
    all.insert(all.end(), layers.begin(), layers.end());
    std::string other;
    for (const std::string& s : bench.other_spans())
      other += (other.empty() ? "\"" : ", \"") + s + "\"";
    std::ofstream os(opts.json_out, std::ios::app);
    os << "{\"workload\": \"" << opts.workload << "\", \"seed\": " << opts.seed
       << ", \"trace\": " << (traced ? "true" : "false")
       << ", \"instances\": " << opts.instances
       << ", \"attempted\": " << bench.attempted() << ", \"failed\": " << bench.failed()
       << ", \"other_spans\": [" << other << "], \"metrics\": " << metrics_json(all, true)
       << "}\n";
    if (!os) {
      std::fprintf(stderr, "ncc_bench: cannot write %s\n", opts.json_out.c_str());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(bench.attempted()),
              static_cast<unsigned long long>(bench.failed()),
              metrics_json(reported, false).c_str());
  return correct ? 0 : 1;
}
