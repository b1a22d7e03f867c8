// Perf-regression ledger tests: the bench_compare rule as a library. A
// regenerated ledger must equal the committed one — the same rows keyed by
// (bench, n), the same numeric fields, the same values — so any drift in any
// counter, a field missing on either side, or a row missing on either side
// FAILs. The one exception: a missing "big" row only warns.
#include <gtest/gtest.h>

#include <string>

#include "obs/bench_diff.hpp"
#include "obs/json_check.hpp"

using namespace ncc::obs;

namespace {

JsonValue parse(const std::string& text) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(json_parse(text, &v, &err)) << err;
  return v;
}

std::string row(const char* bench, int n, uint64_t rounds, uint64_t messages,
                uint64_t peak_bytes, uint64_t allocs) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\": \"%s\", \"n\": %d, \"rounds\": %llu, "
                "\"messages\": %llu, \"peak_bytes\": %llu, \"allocs\": %llu}",
                bench, n, static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(messages),
                static_cast<unsigned long long>(peak_bytes),
                static_cast<unsigned long long>(allocs));
  return buf;
}

// A BENCH_hotkey.json-shaped row (the committed cdn/zipf1.2/lru8 values).
std::string hotkey_row(uint64_t routed) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\": \"cdn/zipf1.2/lru8\", \"n\": 64, \"rounds\": 528, "
                "\"messages\": 32847, \"zipf_s\": 1.20, \"cache_size\": 8, "
                "\"routed\": %llu, \"hits\": 10173, \"evictions\": 0, \"waves\": 6}",
                static_cast<unsigned long long>(routed));
  return buf;
}

// Joins rows into a JSON array with += instead of `"[" + row(...)`, which
// trips GCC 12's spurious -Wrestrict on operator+(const char*, string&&).
std::string doc(std::initializer_list<std::string> rows) {
  std::string d = "[";
  bool first = true;
  for (const std::string& r : rows) {
    if (!first) d += ",";
    d += r;
    first = false;
  }
  d += "]";
  return d;
}

uint64_t count_fails(const BenchDiffResult& r) {
  uint64_t fails = 0;
  for (const BenchDiffIssue& i : r.issues)
    fails += i.severity == BenchDiffIssue::Severity::Fail;
  return fails;
}

}  // namespace

TEST(BenchDiff, IdenticalDocumentsPass) {
  auto base = parse(doc({row("engine_bfs", 512, 2297, 210034, 1u << 20, 42),
                         row("engine_bfs", 4096, 4535, 2422805, 1u << 22, 42)}));
  BenchDiffResult r = diff_bench(base, base);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.rows_compared, 2u);
  EXPECT_TRUE(r.issues.empty());
  EXPECT_NE(render_report(r).find("PASS"), std::string::npos);
}

TEST(BenchDiff, InjectedMessageRegressionFails) {
  // A fresh run sending 25% more messages than the committed baseline must
  // exit non-zero. Message counts are deterministic, so ANY drift fails.
  auto base = parse(doc({row("engine_bfs", 512, 2297, 200000, 1000, 42)}));
  auto fresh = parse(doc({row("engine_bfs", 512, 2297, 250000, 1000, 42)}));
  BenchDiffResult r = diff_bench(base, fresh);
  EXPECT_TRUE(r.failed());
  ASSERT_EQ(count_fails(r), 1u);
  EXPECT_EQ(r.issues[0].metric, "messages");
  EXPECT_NE(render_report(r).find("FAIL"), std::string::npos);
}

TEST(BenchDiff, HardCountersFailOnAnyDrift) {
  auto base = parse(doc({row("b", 64, 100, 5000, 4096, 7)}));
  struct Case {
    const char* metric;
    std::string fresh_row;
  } cases[] = {
      {"rounds", row("b", 64, 101, 5000, 4096, 7)},
      {"messages", row("b", 64, 100, 5001, 4096, 7)},
      {"peak_bytes", row("b", 64, 100, 5000, 8192, 7)},
      {"allocs", row("b", 64, 100, 5000, 4096, 8)},
  };
  for (const Case& c : cases) {
    auto fresh = parse(doc({c.fresh_row}));
    BenchDiffResult r = diff_bench(base, fresh);
    EXPECT_TRUE(r.failed()) << c.metric;
    ASSERT_EQ(count_fails(r), 1u) << c.metric;
    EXPECT_EQ(r.issues[0].metric, c.metric);
  }
}

TEST(BenchDiff, RoutedDriftOnHotkeyRowFails) {
  // The hot-key ledger's headline column is gated like every other counter:
  // no list of metric names decides which fields count.
  auto base = parse(doc({hotkey_row(2167)}));
  auto fresh = parse(doc({hotkey_row(2168)}));
  BenchDiffResult r = diff_bench(base, fresh);
  EXPECT_TRUE(r.failed());
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].row, "cdn/zipf1.2/lru8 n=64");
  EXPECT_EQ(r.issues[0].metric, "routed");
  EXPECT_NE(render_report(r).find("FAIL [cdn/zipf1.2/lru8 n=64] routed"),
            std::string::npos);
}

TEST(BenchDiff, BaselineRowMissingFails) {
  auto base = parse(doc({row("b", 64, 100, 5000, 4096, 7),
                         row("b", 128, 100, 5000, 4096, 9)}));
  auto fresh = parse(doc({row("b", 64, 100, 5000, 4096, 7)}));
  BenchDiffResult r = diff_bench(base, fresh);
  EXPECT_TRUE(r.failed());
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].row, "b n=128");
}

TEST(BenchDiff, FreshOnlyRowFails) {
  auto base = parse(doc({row("b", 64, 100, 5000, 4096, 7)}));
  auto fresh = parse(doc({row("b", 64, 100, 5000, 4096, 7),
                          row("b", 256, 100, 5000, 4096, 11)}));
  BenchDiffResult r = diff_bench(base, fresh);
  EXPECT_TRUE(r.failed());
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].row, "b n=256");
}

TEST(BenchDiff, MissingBigRowOnlyWarns) {
  // Baseline carries a million-node row produced under --big; regeneration
  // runs (the bench_ledger_* ctests) never pass --big, so its absence is
  // expected and must not fail the gate — unlike a plain row vanishing.
  auto base =
      parse(doc({row("b", 64, 100, 5000, 4096, 7),
                 "{\"bench\": \"b\", \"n\": 1048576, \"rounds\": 2, "
                 "\"messages\": 335000000, \"big\": true}"}));
  auto fresh = parse(doc({row("b", 64, 100, 5000, 4096, 7)}));
  BenchDiffResult r = diff_bench(base, fresh);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].severity, BenchDiffIssue::Severity::Warn);
  // When the fresh run *does* regenerate the big row, it compares normally.
  BenchDiffResult full = diff_bench(base, base);
  EXPECT_TRUE(full.issues.empty());
  EXPECT_EQ(full.rows_compared, 2u);
}

TEST(BenchDiff, NumericFieldMissingFromFreshFails) {
  auto base = parse(doc({row("b", 64, 100, 5000, 4096, 7)}));
  auto fresh = parse(
      "[{\"bench\": \"b\", \"n\": 64, \"rounds\": 100, \"messages\": 5000, "
      "\"peak_bytes\": 4096}]");
  BenchDiffResult r = diff_bench(base, fresh);
  EXPECT_TRUE(r.failed());
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].metric, "allocs");
  // And the other way round: a field only the fresh row carries.
  EXPECT_TRUE(diff_bench(fresh, base).failed());
}

TEST(BenchDiff, MalformedDocumentsFail) {
  auto arr = parse("[]");
  auto obj = parse("{\"not\": \"an array\"}");
  EXPECT_TRUE(diff_bench(obj, arr).failed());
  EXPECT_TRUE(diff_bench(arr, obj).failed());
  // Two empty arrays: nothing to compare, nothing failed.
  EXPECT_FALSE(diff_bench(arr, arr).failed());
  // A non-object row, or two rows under one (bench, n) key, cannot be diffed.
  EXPECT_TRUE(diff_bench(parse("[1]"), arr).failed());
  auto dup = parse(doc({row("b", 64, 100, 5000, 4096, 7),
                        row("b", 64, 100, 5000, 4096, 7)}));
  EXPECT_TRUE(diff_bench(dup, dup).failed());
}
