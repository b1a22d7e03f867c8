#include "scenario/spec.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace ncc::scenario {

namespace {

const struct {
  GraphFamily family;
  const char* name;
} kFamilies[] = {
    {GraphFamily::kPath, "path"},
    {GraphFamily::kCycle, "cycle"},
    {GraphFamily::kStar, "star"},
    {GraphFamily::kClique, "clique"},
    {GraphFamily::kGrid, "grid"},
    {GraphFamily::kHypercube, "hypercube"},
    {GraphFamily::kTree, "tree"},
    {GraphFamily::kForestUnion, "forest_union"},
    {GraphFamily::kGnm, "gnm"},
    {GraphFamily::kGnp, "gnp"},
    {GraphFamily::kPowerLaw, "powerlaw"},
    {GraphFamily::kBarabasiAlbert, "barabasi_albert"},
};


bool parse_u64(const std::string& v, uint64_t* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  if (!v.empty() && (v[0] == '-' || v[0] == '+')) return false;
  *out = x;
  return true;
}

bool parse_u32(const std::string& v, uint32_t* out) {
  uint64_t x;
  if (!parse_u64(v, &x) || x > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(x);
  return true;
}

bool parse_double(const std::string& v, double* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double x = std::strtod(v.c_str(), &end);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  *out = x;
  return true;
}

bool parse_bool(const std::string& v, bool* out) {
  if (v == "true" || v == "1") return *out = true, true;
  if (v == "false" || v == "0") return *out = false, true;
  return false;
}

bool parse_u64_list(const std::string& v, std::vector<uint64_t>* out) {
  out->clear();
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    uint64_t x;
    if (!parse_u64(spec_trim(item), &x)) return false;
    out->push_back(x);
  }
  return !out->empty();
}

/// `lo-hi,lo-hi,...` with lo < hi (half-open round windows).
bool parse_window_list(const std::string& v, std::vector<RoundWindow>* out) {
  out->clear();
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = spec_trim(item);
    size_t dash = item.find('-');
    if (dash == std::string::npos) return false;
    RoundWindow w;
    if (!parse_u64(spec_trim(item.substr(0, dash)), &w.lo)) return false;
    if (!parse_u64(spec_trim(item.substr(dash + 1)), &w.hi)) return false;
    if (w.lo >= w.hi) return false;
    out->push_back(w);
  }
  return !out->empty();
}

std::string fmt_double(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

}  // namespace

std::string spec_trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

const char* family_name(GraphFamily f) {
  for (const auto& e : kFamilies)
    if (e.family == f) return e.name;
  return "?";
}

std::optional<GraphFamily> family_from_name(const std::string& name) {
  for (const auto& e : kFamilies)
    if (name == e.name) return e.family;
  return std::nullopt;
}

std::string ScenarioSpec::to_string() const {
  std::ostringstream os;
  os << "name = " << name << "\n";
  os << "graph = " << family_name(family) << "\n";
  os << "n = " << n << "\n";
  switch (family) {
    case GraphFamily::kGnm:
      os << "m = " << m << "\n";
      break;
    case GraphFamily::kGnp:
      os << "p = " << fmt_double(p) << "\n";
      break;
    case GraphFamily::kForestUnion:
      os << "a = " << a << "\n";
      break;
    case GraphFamily::kBarabasiAlbert:
      os << "k = " << k << "\n";
      break;
    case GraphFamily::kPowerLaw:
      os << "beta = " << fmt_double(beta) << "\n";
      os << "max_deg = " << max_deg << "\n";
      break;
    case GraphFamily::kGrid:
      os << "rows = " << rows << "\n";
      os << "cols = " << cols << "\n";
      break;
    case GraphFamily::kHypercube:
      os << "dim = " << dim << "\n";
      break;
    default:
      break;
  }
  if (connect) os << "connect = true\n";
  if (weights != WeightMode::kUnit) {
    os << "weights = " << (weights == WeightMode::kRandom ? "random" : "distinct")
       << "\n";
    if (weights == WeightMode::kRandom) os << "w_max = " << w_max << "\n";
  }
  // Traffic/cache keys are emitted only when non-default, so every spec
  // written before these axes existed round-trips byte-identically.
  if (traffic == Traffic::kZipf) {
    os << "traffic = zipf\n";
    os << "zipf_s = " << fmt_double(zipf_s) << "\n";
    os << "hot_keys = " << hot_keys << "\n";
  }
  if (request_waves != 1) os << "request_waves = " << request_waves << "\n";
  if (cache == Cache::kLru) {
    os << "cache = lru\n";
    os << "cache_size = " << cache_size << "\n";
  }
  os << "algorithm = " << algorithm << "\n";
  if (overlay != OverlayKind::kButterfly)
    os << "overlay = " << overlay_name(overlay) << "\n";
  os << "seed = " << seed << "\n";
  os << "capacity_factor = " << capacity_factor << "\n";
  os << "threads = " << threads << "\n";
  if (round_limit) os << "round_limit = " << round_limit << "\n";
  if (!expect.empty()) os << "expect = " << expect << "\n";
  if (!faults.crash_rounds.empty()) {
    os << "crash_rounds = ";
    for (size_t i = 0; i < faults.crash_rounds.size(); ++i)
      os << (i ? "," : "") << faults.crash_rounds[i];
    os << "\n";
    os << "crash_count = " << faults.crash_count << "\n";
  }
  if (faults.drop_rate > 0.0) os << "drop_rate = " << fmt_double(faults.drop_rate) << "\n";
  if (faults.perturb_every) {
    os << "perturb_every = " << faults.perturb_every << "\n";
    os << "perturb_for = " << faults.perturb_for << "\n";
    os << "perturb_factor = " << faults.perturb_factor << "\n";
  }
  if (!faults.partition_windows.empty()) {
    os << "partition_windows = ";
    for (size_t i = 0; i < faults.partition_windows.size(); ++i)
      os << (i ? "," : "") << faults.partition_windows[i].lo << "-"
         << faults.partition_windows[i].hi;
    os << "\n";
    os << "partition_frac = " << fmt_double(faults.partition_frac) << "\n";
  }
  if (faults.byzantine_rate > 0.0)
    os << "byzantine_rate = " << fmt_double(faults.byzantine_rate) << "\n";
  return os.str();
}

bool lex_spec_line(const std::string& raw, std::string* key, std::string* val,
                   std::string* error) {
  key->clear();
  val->clear();
  std::string line = raw;
  if (size_t h = line.find('#'); h != std::string::npos) line.resize(h);
  line = spec_trim(line);
  if (line.empty()) return true;
  size_t eq = line.find('=');
  if (eq == std::string::npos) {
    if (error) *error = "expected `key = value`: " + raw;
    return false;
  }
  *key = spec_trim(line.substr(0, eq));
  *val = spec_trim(line.substr(eq + 1));
  if (key->empty() || val->empty()) {
    if (error) *error = "empty key or value: " + raw;
    return false;
  }
  return true;
}

bool apply_spec_key(ScenarioSpec& spec, const std::string& key,
                    const std::string& val, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  bool ok = true;
  if (key == "name") {
    spec.name = val;
  } else if (key == "graph") {
    auto f = family_from_name(val);
    if (!f) return fail("unknown graph family `" + val + "`");
    spec.family = *f;
    spec.provided.graph = true;
  } else if (key == "n") {
    ok = parse_u32(val, &spec.n);
    spec.provided.n = ok;
  } else if (key == "m") {
    ok = parse_u64(val, &spec.m);
  } else if (key == "p") {
    ok = parse_double(val, &spec.p) && spec.p >= 0.0 && spec.p <= 1.0;
  } else if (key == "a") {
    ok = parse_u32(val, &spec.a) && spec.a >= 1;
  } else if (key == "k") {
    ok = parse_u32(val, &spec.k) && spec.k >= 1;
  } else if (key == "beta") {
    // Chung-Lu weights i^{-1/(beta-1)} need beta > 1 (power_law_graph).
    ok = parse_double(val, &spec.beta) && spec.beta > 1.0;
  } else if (key == "max_deg") {
    ok = parse_u32(val, &spec.max_deg) && spec.max_deg >= 1;
  } else if (key == "rows") {
    ok = parse_u32(val, &spec.rows) && spec.rows >= 1;
  } else if (key == "cols") {
    ok = parse_u32(val, &spec.cols) && spec.cols >= 1;
  } else if (key == "dim") {
    ok = parse_u32(val, &spec.dim) && spec.dim >= 1 && spec.dim < 31;
  } else if (key == "connect") {
    ok = parse_bool(val, &spec.connect);
  } else if (key == "weights") {
    if (val == "unit") {
      spec.weights = WeightMode::kUnit;
    } else if (val == "random") {
      spec.weights = WeightMode::kRandom;
    } else if (val == "distinct") {
      spec.weights = WeightMode::kDistinct;
    } else {
      return fail("weights must be unit|random|distinct, got `" + val + "`");
    }
  } else if (key == "w_max") {
    ok = parse_u64(val, &spec.w_max) && spec.w_max >= 1;
  } else if (key == "traffic") {
    if (val == "uniform") {
      spec.traffic = ScenarioSpec::Traffic::kUniform;
    } else if (val == "zipf") {
      spec.traffic = ScenarioSpec::Traffic::kZipf;
    } else {
      return fail("traffic must be uniform|zipf, got `" + val + "`");
    }
  } else if (key == "zipf_s") {
    ok = parse_double(val, &spec.zipf_s) && spec.zipf_s >= 0.0 && spec.zipf_s <= 8.0;
    spec.provided.zipf_s = ok;
  } else if (key == "hot_keys") {
    ok = parse_u32(val, &spec.hot_keys) && spec.hot_keys >= 1;
    spec.provided.hot_keys = ok;
  } else if (key == "request_waves") {
    ok = parse_u32(val, &spec.request_waves) && spec.request_waves >= 1 &&
         spec.request_waves <= 64;
  } else if (key == "cache") {
    if (val == "off") {
      spec.cache = ScenarioSpec::Cache::kOff;
    } else if (val == "lru") {
      spec.cache = ScenarioSpec::Cache::kLru;
    } else {
      return fail("cache must be off|lru, got `" + val + "`");
    }
  } else if (key == "cache_size") {
    ok = parse_u32(val, &spec.cache_size) && spec.cache_size >= 1;
    spec.provided.cache_size = ok;
  } else if (key == "algorithm") {
    spec.algorithm = val;
    spec.provided.algorithm = true;
  } else if (key == "overlay") {
    auto k = overlay_from_name(val);
    if (!k) {
      std::string names;
      for (OverlayKind o : all_overlay_kinds())
        names += (names.empty() ? "" : "|") + std::string(overlay_name(o));
      return fail("overlay must be " + names + ", got `" + val + "`");
    }
    spec.overlay = *k;
  } else if (key == "seed") {
    ok = parse_u64(val, &spec.seed);
  } else if (key == "capacity_factor") {
    ok = parse_u32(val, &spec.capacity_factor) && spec.capacity_factor >= 1;
  } else if (key == "threads") {
    ok = parse_u32(val, &spec.threads) && spec.threads >= 1 && spec.threads <= 1024;
  } else if (key == "round_limit") {
    ok = parse_u64(val, &spec.round_limit);
  } else if (key == "expect") {
    // One class or a comma list of acceptable classes (`expect = ok,degraded`
    // gates out only round_limit/error verdicts). Split manually so empty
    // members — including a trailing comma — are parse errors like every
    // other malformed value.
    std::string canonical;
    for (size_t start = 0;;) {
      size_t comma = val.find(',', start);
      std::string item = spec_trim(val.substr(start, comma - start));
      if (item != "ok" && item != "degraded" && item != "round_limit" && item != "any")
        return fail("expect must be a comma list of ok|degraded|round_limit|any, got `" +
                    val + "`");
      canonical += (canonical.empty() ? "" : ",") + item;
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    spec.expect = canonical;
  } else if (key == "crash_rounds") {
    ok = parse_u64_list(val, &spec.faults.crash_rounds);
  } else if (key == "crash_count") {
    ok = parse_u32(val, &spec.faults.crash_count) && spec.faults.crash_count >= 1;
  } else if (key == "drop_rate") {
    ok = parse_double(val, &spec.faults.drop_rate) && spec.faults.drop_rate >= 0.0 &&
         spec.faults.drop_rate < 1.0;
  } else if (key == "perturb_every") {
    ok = parse_u64(val, &spec.faults.perturb_every);
  } else if (key == "perturb_for") {
    ok = parse_u64(val, &spec.faults.perturb_for) && spec.faults.perturb_for >= 1;
  } else if (key == "perturb_factor") {
    ok = parse_u32(val, &spec.faults.perturb_factor) && spec.faults.perturb_factor >= 2;
  } else if (key == "partition_windows") {
    ok = parse_window_list(val, &spec.faults.partition_windows);
  } else if (key == "partition_frac") {
    ok = parse_double(val, &spec.faults.partition_frac) &&
         spec.faults.partition_frac > 0.0 && spec.faults.partition_frac < 1.0;
    spec.provided.partition_frac = ok;
  } else if (key == "byzantine_rate") {
    ok = parse_double(val, &spec.faults.byzantine_rate) &&
         spec.faults.byzantine_rate >= 0.0 && spec.faults.byzantine_rate < 1.0;
  } else {
    return fail("unknown key `" + key + "`");
  }
  if (!ok) return fail("malformed value for `" + key + "`: " + val);
  return true;
}

bool validate_spec(ScenarioSpec& spec, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  if (!spec.provided.graph) return fail("missing required key `graph`");
  if (!spec.provided.algorithm) return fail("missing required key `algorithm`");
  if (spec.family == GraphFamily::kGrid) {
    if (!spec.rows || !spec.cols) return fail("grid requires `rows` and `cols`");
    uint64_t rc = static_cast<uint64_t>(spec.rows) * spec.cols;
    if (rc > UINT32_MAX) return fail("grid: rows*cols overflows the node id space");
    if (spec.provided.n && spec.n != rc) return fail("grid: n contradicts rows*cols");
    spec.n = static_cast<NodeId>(rc);
  } else if (spec.family == GraphFamily::kHypercube) {
    if (!spec.dim) return fail("hypercube requires `dim`");
    NodeId hn = NodeId{1} << spec.dim;
    if (spec.provided.n && spec.n != hn) return fail("hypercube: n contradicts 2^dim");
    spec.n = hn;
  } else if (!spec.provided.n) {
    return fail("missing required key `n`");
  }
  if (spec.n < 2) return fail("n must be >= 2");
  if (spec.family == GraphFamily::kGnm && spec.m == 0)
    return fail("gnm requires `m`");
  if (spec.family == GraphFamily::kGnp && spec.p == 0.0)
    return fail("gnp requires `p` > 0");
  if (spec.faults.perturb_every &&
      spec.faults.perturb_for >= spec.faults.perturb_every)
    return fail("perturb_for must be < perturb_every");
  if (spec.provided.partition_frac && spec.faults.partition_windows.empty())
    return fail("partition_frac without `partition_windows`");
  if (spec.traffic != ScenarioSpec::Traffic::kZipf) {
    if (spec.provided.zipf_s) return fail("zipf_s without `traffic = zipf`");
    if (spec.provided.hot_keys) return fail("hot_keys without `traffic = zipf`");
  }
  if (spec.cache != ScenarioSpec::Cache::kLru && spec.provided.cache_size)
    return fail("cache_size without `cache = lru`");
  if (spec.faults.any() && spec.round_limit == 0)
    return fail(
        "fault injection requires a `round_limit` (lost protocol "
        "tokens can jam termination detection forever)");
  // The AQ_d aggregation tree concentrates up to 2d-1 in-messages per round
  // at the root's host (measured by the observability tests); at
  // capacity_factor 1 the receive budget is only d+1 and barrier counts are
  // silently lost, so a capacity-1 augmented-cube spec is a configuration
  // error, not a scenario.
  if (spec.overlay == OverlayKind::kAugmentedCube && spec.capacity_factor < 2)
    return fail(
        "augmented_cube requires `capacity_factor >= 2`: its aggregation "
        "tree delivers up to 2d-1 messages per round to the root's host, "
        "which overflows the capacity-1 receive budget and drops barrier "
        "counts (see README, Observability)");
  if (spec.expect.empty()) spec.expect = spec.faults.any() ? "any" : "ok";
  return true;
}

std::optional<ScenarioSpec> parse_spec(const std::string& text, std::string* error) {
  ScenarioSpec spec;
  auto fail = [&](int line, const std::string& why) {
    if (error) *error = "line " + std::to_string(line) + ": " + why;
    return std::nullopt;
  };

  std::stringstream ss(text);
  std::string raw, key, val;
  int lineno = 0;
  while (std::getline(ss, raw)) {
    ++lineno;
    std::string why;
    if (!lex_spec_line(raw, &key, &val, &why)) return fail(lineno, why);
    if (key.empty()) continue;
    if (!apply_spec_key(spec, key, val, &why)) return fail(lineno, why);
  }

  std::string why;
  if (!validate_spec(spec, &why)) return fail(lineno, why);
  return spec;
}

std::optional<ScenarioSpec> parse_spec_file(const std::string& path, std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  std::string text = buf.str();
  auto spec = parse_spec(text, error);
  if (spec && spec->name == "scenario") {
    // No explicit name: default to the file stem.
    size_t slash = path.find_last_of('/');
    std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
    if (size_t dot = stem.find_last_of('.'); dot != std::string::npos) stem.resize(dot);
    spec->name = stem;
  }
  if (!spec && error) *error = path + ": " + *error;
  return spec;
}

std::optional<Graph> build_graph(const ScenarioSpec& spec, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = "graph build failed: " + why;
    return std::nullopt;
  };
  Rng rng(mix64(spec.seed ^ 0x7363656e5f677261ULL));  // "scen_gra"
  Graph g;
  switch (spec.family) {
    case GraphFamily::kPath:
      g = path_graph(spec.n);
      break;
    case GraphFamily::kCycle:
      if (spec.n < 3) return fail("cycle needs n >= 3");
      g = cycle_graph(spec.n);
      break;
    case GraphFamily::kStar:
      g = star_graph(spec.n);
      break;
    case GraphFamily::kClique:
      g = complete_graph(spec.n);
      break;
    case GraphFamily::kGrid:
      g = grid_graph(spec.rows, spec.cols);
      break;
    case GraphFamily::kHypercube:
      g = hypercube_graph(spec.dim);
      break;
    case GraphFamily::kTree:
      g = random_tree(spec.n, rng);
      break;
    case GraphFamily::kForestUnion:
      g = random_forest_union(spec.n, spec.a, rng);
      break;
    case GraphFamily::kGnm: {
      uint64_t max_m = static_cast<uint64_t>(spec.n) * (spec.n - 1) / 2;
      if (spec.m > max_m) return fail("gnm: m exceeds n*(n-1)/2");
      g = gnm_graph(spec.n, spec.m, rng);
      break;
    }
    case GraphFamily::kGnp:
      g = gnp_graph(spec.n, spec.p, rng);
      break;
    case GraphFamily::kPowerLaw:
      g = power_law_graph(spec.n, spec.beta, spec.max_deg, rng);
      break;
    case GraphFamily::kBarabasiAlbert:
      if (spec.k >= spec.n) return fail("barabasi_albert needs k < n");
      g = barabasi_albert_graph(spec.n, spec.k, rng);
      break;
  }
  if (spec.connect) g = connectify(g, rng);
  switch (spec.weights) {
    case WeightMode::kUnit:
      break;
    case WeightMode::kRandom:
      g = with_random_weights(g, spec.w_max, rng);
      break;
    case WeightMode::kDistinct:
      g = with_distinct_weights(g, rng);
      break;
  }
  return g;
}

}  // namespace ncc::scenario
