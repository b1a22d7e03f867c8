// The paper's Table 1, checked. Every scenarios/table1/*.scn grid runs its
// cells through the path ncc_run takes (parse_sweep_file -> expand_sweep_cell
// -> run_cells, four cells at a time) and each cell must verify (`ok`) with its measured rounds
// within a constant factor of its row's bound:
//
//   MST                    log^4 n                     (Section 3)
//   BFS tree               (a + D + log n) log n       (Section 5.1)
//   MIS, maximal matching  (a + log n) log n           (Sections 5.2, 5.3)
//   O(a)-coloring          (a + log n) log^1.5 n       (Section 5.4)
//
// with log x = log2(max(2, x)), a the spec's arboricity bound (2 for a grid)
// and D the graph's exact diameter. For MST the ratio must also not rise from
// the smallest to the largest n: the bound's shape, flat or falling.
//
// `ctest -R test_table1_bounds -V` prints the measured-vs-bound table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "graph/properties.hpp"
#include "scenario/cells.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

using namespace ncc;
using namespace ncc::scenario;

namespace {

double lg(double x) { return std::log2(std::max(2.0, x)); }

struct Row {
  const char* formula;
  // Ceiling on rounds / bound: the highest ratio the grids measure, x 1.5,
  // rounded up. Measured maxima, with barriers only after phases of unknown
  // length (an injection under a known l1_hat has none): MST 19.1 (n = 32;
  // 10.4 at n = 128), BFS 12.3, MIS 25.9, matching 20.8, coloring 8.5.
  double ceiling;
};

const std::map<std::string, Row> kRows = {
    {"mst", {"log^4 n", 29}},
    {"bfs", {"(a + D + log n) log n", 19}},
    {"mis", {"(a + log n) log n", 39}},
    {"matching", {"(a + log n) log n", 32}},
    {"coloring", {"(a + log n) log^1.5 n", 13}},
};

/// The row's bound for one cell, with D read off the cell's own graph.
double bound_for(const ScenarioSpec& spec) {
  const double l = lg(spec.n);
  const double a = spec.family == GraphFamily::kGrid ? 2.0 : spec.a;
  if (spec.algorithm == "mst") return l * l * l * l;
  if (spec.algorithm == "bfs") {
    std::string error;
    auto g = build_graph(spec, &error);
    EXPECT_TRUE(g) << error;
    return g ? (a + exact_diameter(*g) + l) * l : 0.0;
  }
  if (spec.algorithm == "coloring") return (a + l) * l * std::sqrt(l);
  return (a + l) * l;
}

std::vector<std::string> table1_specs() {
  std::vector<std::string> paths;
  for (const auto& e :
       std::filesystem::directory_iterator(NCC_SOURCE_DIR "/scenarios/table1"))
    if (e.path().extension() == ".scn") paths.push_back(e.path().string());
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

TEST(Table1, EveryCellVerifiesWithinItsBound) {
  RunOptions opts;
  opts.build_json = false;

  Table t({"cell", "verdict", "rounds", "bound", "formula", "ratio", "ceiling"});
  std::map<std::string, int> cells_per_algorithm;
  std::map<NodeId, double> mst_ratio;  // n -> rounds / log^4 n

  std::vector<ScenarioSpec> specs;
  for (const std::string& path : table1_specs()) {
    std::string error;
    auto sweep = parse_sweep_file(path, &error);
    ASSERT_TRUE(sweep) << error;
    for (uint64_t c = 0; c < sweep->cells(); ++c) {
      auto spec = expand_sweep_cell(*sweep, c, &error);
      ASSERT_TRUE(spec) << error;
      ASSERT_TRUE(kRows.count(spec->algorithm))
          << spec->name << ": no Table 1 row for " << spec->algorithm;
      specs.push_back(std::move(*spec));
    }
  }
  const std::vector<ScenarioOutcome> outs = run_cells(specs, opts, 4);
  for (size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    const ScenarioOutcome& out = outs[i];
    const auto& row = kRows.at(spec.algorithm);
    const double bound = bound_for(spec);
    const double ratio = static_cast<double>(out.rounds) / bound;
    EXPECT_EQ(out.verdict, "ok") << spec.name;
    EXPECT_FALSE(out.failed) << spec.name;  // includes the node-capacity check
    EXPECT_LE(ratio, row.ceiling) << spec.name << ": " << out.rounds
                                  << " rounds vs bound " << bound;
    ++cells_per_algorithm[spec.algorithm];
    if (spec.algorithm == "mst") mst_ratio[spec.n] = ratio;
    t.add_row({spec.name, out.verdict, Table::num(out.rounds), Table::num(bound, 0),
               row.formula, Table::num(ratio, 1), Table::num(row.ceiling, 0)});
  }
  t.print("== Table 1: measured rounds vs the paper's bounds ==");

  for (const auto& [algorithm, row] : kRows)
    EXPECT_GT(cells_per_algorithm[algorithm], 0) << "no grid exercises " << algorithm;
  ASSERT_GE(mst_ratio.size(), 2u);
  EXPECT_LE(mst_ratio.rbegin()->second, mst_ratio.begin()->second)
      << "MST rounds / log^4 n rose from n = " << mst_ratio.begin()->first
      << " to n = " << mst_ratio.rbegin()->first;
}
