#include "scenario/runner.hpp"

// det-lint: observational — wall_ms is an observational field, outside the
// deterministic byte prefix
#include <chrono>
#include <optional>
#include <sstream>

#include "engine/engine.hpp"
#include "obs/flow.hpp"
#include "obs/round_ledger.hpp"
#include "obs/tracer.hpp"
#include "scenario/faults.hpp"
#include "scenario/registry.hpp"

namespace ncc::scenario {

namespace {

void write_spec_fields(obs::JsonWriter& w, const ScenarioSpec& spec) {
  w.kv("scenario", spec.name);
  w.kv("algorithm", spec.algorithm);
  w.kv("graph", std::string(family_name(spec.family)));
  w.kv("overlay", std::string(overlay_name(spec.overlay)));
  w.kv("seed", spec.seed);
  w.kv("capacity_factor", spec.capacity_factor);
  // Traffic/cache fields mirror the spec's to_string discipline: emitted only
  // when non-default, so pre-existing catalog/sweep JSON stays byte-identical.
  if (spec.traffic == ScenarioSpec::Traffic::kZipf) {
    w.kv("traffic", std::string("zipf"));
    w.kv("zipf_s", spec.zipf_s);
    w.kv("hot_keys", uint64_t{spec.hot_keys});
  }
  if (spec.request_waves != 1) w.kv("request_waves", uint64_t{spec.request_waves});
  if (spec.cache == ScenarioSpec::Cache::kLru) {
    w.kv("cache", std::string("lru"));
    w.kv("cache_size", uint64_t{spec.cache_size});
  }
  w.key("faults");
  w.begin_object();
  w.kv("crash_batches", static_cast<uint64_t>(spec.faults.crash_rounds.size()));
  w.kv("crash_count", spec.faults.crash_count);
  w.kv("drop_rate", spec.faults.drop_rate);
  w.kv("perturb_every", spec.faults.perturb_every);
  w.kv("partition_windows",
       static_cast<uint64_t>(spec.faults.partition_windows.size()));
  w.kv("byzantine_rate", spec.faults.byzantine_rate);
  w.end_object();
}

/// The spec's expectation class, resolved even for hand-built specs that
/// never went through validate_spec (empty expect = auto).
std::string effective_expect(const ScenarioSpec& spec) {
  if (!spec.expect.empty()) return spec.expect;
  return spec.faults.any() ? "any" : "ok";
}

/// Does the verdict satisfy one expectation class?
bool verdict_matches(const std::string& expect, const ScenarioOutcome& out) {
  if (expect == "any") return true;
  if (expect == "ok") return out.ok;
  if (expect == "degraded") return out.verdict.rfind("degraded", 0) == 0;
  if (expect == "round_limit") return out.verdict == "round_limit";
  return false;
}

/// The regression gate: does the verdict satisfy the expectation — a single
/// class or a comma list of acceptable classes (`expect = ok,degraded`)?
/// error:* verdicts (and runs that never executed) always fail.
bool verdict_failed(const std::string& expect, const ScenarioOutcome& out) {
  if (!out.ran) return true;
  if (out.verdict.rfind("error:", 0) == 0) return true;
  std::stringstream ss(expect);
  std::string item;
  while (std::getline(ss, item, ','))
    if (verdict_matches(item, out)) return false;
  return true;
}

}  // namespace

bool within_node_capacity(const NetStats& st, uint32_t cap) {
  return st.max_send_load <= cap && (st.max_recv_load <= cap || st.messages_dropped > 0);
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunOptions& opts) {
  ScenarioOutcome out;
  std::string error;

  out.expect = effective_expect(spec);
  auto fail_early = [&](const std::string& why) {
    out.verdict = "error:" + why;
    out.failed = true;
    if (opts.build_json) {
      obs::JsonWriter w;
      w.begin_object();
      write_spec_fields(w, spec);
      w.kv("verdict", out.verdict);
      w.kv("ok", false);
      w.kv("expect", out.expect);
      w.kv("failed", true);
      w.end_object();
      out.json = w.str();
    }
    return out;
  };

  ScenarioRunFn algo = find_algorithm(spec.algorithm);
  if (!algo) return fail_early("unknown algorithm `" + spec.algorithm + "`");
  auto graph = build_graph(spec, &error);
  if (!graph) return fail_early(error);

  NetConfig cfg;
  cfg.n = graph->n();
  cfg.capacity_factor = spec.capacity_factor;
  cfg.seed = spec.seed;
  // Under fault injection, over-budget sends are counted instead of aborting:
  // a degraded algorithm reacting to losses is a scenario result, not a bug.
  cfg.strict_send = !spec.faults.any();
  Network net(cfg);
  // The engine only times the run's send loops and deliveries (the trace's
  // wall-clock track); the same code runs without it.
  Engine engine(net);
  FaultInjector faults(net, spec.faults, spec.seed, spec.round_limit);
  // The observability layer attaches whenever its output is consumed: the
  // full JSON document carries deterministic "per_round"/"spans"/
  // "congestion" sections, and collect_trace asks for the Chrome-trace
  // payload even on compact sweep-cell runs.
  bool want_obs = opts.build_json || opts.collect_trace;
  std::optional<obs::Tracer> tracer;
  std::optional<obs::RoundLedger> ledger;
  std::optional<obs::FlowSampler> flowsamp;
  if (want_obs) {
    tracer.emplace(net);
    ledger.emplace(net);
    flowsamp.emplace(net, spec.seed);
  }

  ScenarioRunResult result;
  // det-lint: observational — wall_ms timing only
  auto t0 = std::chrono::steady_clock::now();
  try {
    obs::Span root(net, "run");
    result = algo(net, *graph, spec);
    out.verdict = result.verdict;
    out.ok = result.ok;
  } catch (const RoundLimitReached&) {
    out.verdict = "round_limit";
    out.ok = false;
  } catch (const std::exception& e) {
    out.verdict = std::string("error:") + e.what();
    out.ok = false;
  }
  // det-lint: observational — wall_ms timing only
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    // det-lint: observational — wall_ms timing only
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.ran = true;
  const NetStats& st = net.stats();
  out.rounds = st.rounds;
  out.messages = st.messages_sent;
  out.fault_drops = st.fault_drops;
  out.corrupted = st.corrupted;
  out.crashed = faults.crashed_count();
  out.failed = verdict_failed(out.expect, out) || !within_node_capacity(st, net.cap());
  out.counters = std::move(result.counters);
  out.container_bytes_peak = net.mem_stats().container_bytes_peak;
  out.net_allocs = net.mem_stats().allocs;
  out.live_msgs_peak = net.mem_stats().live_msgs_peak;
  if (opts.collect_trace && tracer) {
    std::ostringstream label;
    label << spec.name << " " << spec.algorithm << " "
          << overlay_name(spec.overlay) << " n=" << graph->n()
          << " cf=" << spec.capacity_factor << " seed=" << spec.seed;
    out.trace.name = label.str();
    out.trace.rounds = st.rounds;
    out.trace.spans = tracer->spans();
    out.trace.max_in_degree = ledger->max_in_degree();
    out.trace.live_bytes = ledger->live_bytes();
    out.trace.flows = flowsamp->flows();
    out.trace.cache_series = result.cache_series;
    out.trace.shard_timing = engine.shard_timing();
  }
  if (!opts.build_json) return out;

  obs::JsonWriter w;
  w.begin_object();
  write_spec_fields(w, spec);
  w.kv("n", uint64_t{graph->n()});
  w.kv("m", graph->m());
  w.kv("cap", net.cap());
  w.kv("verdict", out.verdict);
  w.kv("ok", out.ok);
  w.kv("expect", out.expect);
  w.kv("failed", out.failed);
  w.kv("rounds", st.rounds);
  w.kv("charged_rounds", st.charged_rounds);
  w.kv("total_rounds", st.total_rounds());
  w.kv("messages", st.messages_sent);
  w.kv("dropped", st.messages_dropped);
  w.kv("fault_drops", st.fault_drops);
  w.kv("corrupted", st.corrupted);
  w.kv("crashed", out.crashed);
  w.kv("max_send_load", st.max_send_load);
  w.kv("max_recv_load", st.max_recv_load);
  w.key("counters");
  w.begin_object();
  for (const auto& [k, v] : out.counters) w.kv(k, v);
  w.end_object();
  w.key("per_round");
  ledger->write_per_round_json(w);
  w.key("spans");
  tracer->write_json(w);
  w.key("congestion");
  ledger->write_congestion_json(w);
  // Sampled token flows are a pure function of (spec, seed) (hops are
  // recorded at the router's deposit/arrive points, in a fixed order), so —
  // unlike timing/memory — the section lives inside the determinism-compared
  // bytes.
  w.key("flows");
  flowsamp->write_json(w);
  // The non-deterministic sections always trail, timing before memory, so
  // byte-segregation tests can truncate the document at the first gated key.
  if (opts.timing) {
    w.key("timing");
    w.begin_object();
    w.kv("wall_ms", out.wall_ms);
    w.end_object();
  }
  if (opts.memory) {
    w.key("memory");
    ledger->write_memory_json(w);
  }
  w.end_object();
  out.json = w.str();
  return out;
}

}  // namespace ncc::scenario
