// bench_compare: the perf-regression gate. Diffs a freshly regenerated
// BENCH_*.json against the committed baseline, prints the report and exits 1
// when they differ: every row keyed by (bench, n) must carry the same counters
// with the same values (see src/obs/bench_diff.hpp; a missing "big" row only
// warns).
//
// Usage:
//   bench_compare BASELINE.json FRESH.json
//
// Exit status: 0 match (warnings allowed), 1 differ, 2 usage/read/parse
// error. The bench_ledger_* ctests run it on each committed ledger. To accept
// an intentional change, recommit the regenerated ledger alongside the change
// that explains it.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/bench_diff.hpp"

namespace {

bool read_json(const char* path, ncc::obs::JsonValue* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!ncc::obs::json_parse(ss.str(), out, &err)) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: bench_compare BASELINE.json FRESH.json\n");
    return 2;
  }
  ncc::obs::JsonValue base, fresh;
  if (!read_json(argv[1], &base) || !read_json(argv[2], &fresh)) return 2;

  ncc::obs::BenchDiffResult result = ncc::obs::diff_bench(base, fresh);
  std::printf("bench_compare: %s vs %s\n%s", argv[1], argv[2],
              ncc::obs::render_report(result).c_str());
  return result.failed() ? 1 : 0;
}
