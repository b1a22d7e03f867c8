// det_lint rule-engine tests: manifest parsing/classification, every rule on
// its golden fixture (firing / suppressed / clean), suppression grammar
// errors, report determinism, the two acceptance gates — the full tree
// lints clean, and a seeded unordered_map iteration in overlay/router.cpp is
// caught with a file:line report — and a seeded mutation test of the lexer
// and the manifest parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "lint/det_lint.hpp"

using ncc::lint::FileClass;
using ncc::lint::Finding;
using ncc::lint::Manifest;

namespace {

std::string repo_root() { return NCC_SOURCE_DIR; }

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot read " << path;
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

std::string fixture(const std::string& name) {
  return read_file(repo_root() + "/tests/lint_fixtures/" + name);
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  FileClass cls = FileClass::Deterministic) {
  std::vector<Finding> out;
  ncc::lint::lint_file(name, fixture(name), cls, &out);
  std::sort(out.begin(), out.end(), ncc::lint::finding_less);
  return out;
}

uint32_t count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  uint32_t n = 0;
  for (const Finding& f : fs) n += f.rule == rule;
  return n;
}

bool has(const std::vector<Finding>& fs, const std::string& rule,
         uint32_t line) {
  for (const Finding& f : fs)
    if (f.rule == rule && f.line == line) return true;
  return false;
}

TEST(Manifest, ParsesClassesAndRejectsGarbage) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(ncc::lint::parse_manifest(
      "# comment\n\ndeterministic src/\nmixed src/engine/engine.cpp\n"
      "observational src/obs/\n",
      &m, &err))
      << err;
  ASSERT_EQ(m.entries.size(), 3u);

  EXPECT_FALSE(ncc::lint::parse_manifest("quantum src/\n", &m, &err));
  EXPECT_NE(err.find("unknown class"), std::string::npos);
  EXPECT_FALSE(ncc::lint::parse_manifest("deterministic\n", &m, &err));
  EXPECT_FALSE(ncc::lint::parse_manifest("deterministic src/ extra\n", &m, &err));
  EXPECT_FALSE(ncc::lint::parse_manifest("# only comments\n", &m, &err));
}

TEST(Manifest, LongestPrefixWinsAtPathBoundaries) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(ncc::lint::parse_manifest(
      "deterministic src/\nobservational src/obs/\n"
      "mixed src/obs/special.cpp\n",
      &m, &err))
      << err;

  FileClass c;
  ASSERT_TRUE(m.classify("src/core/mst.cpp", &c));
  EXPECT_EQ(c, FileClass::Deterministic);
  ASSERT_TRUE(m.classify("src/obs/tracer.cpp", &c));
  EXPECT_EQ(c, FileClass::Observational);
  ASSERT_TRUE(m.classify("src/obs/special.cpp", &c));
  EXPECT_EQ(c, FileClass::Mixed);
  EXPECT_FALSE(m.classify("tools/ncc_run.cpp", &c));

  // `src/engine/engine.cpp` must not swallow `src/engine/engine.cpp2`-style
  // siblings, and a file entry must match exactly.
  Manifest m2;
  ASSERT_TRUE(ncc::lint::parse_manifest("mixed src/engine/engine.cpp\n", &m2,
                                        &err));
  ASSERT_TRUE(m2.classify("src/engine/engine.cpp", &c));
  EXPECT_FALSE(m2.classify("src/engine/engine.cpp.bak", &c));
  EXPECT_FALSE(m2.classify("src/engine/engine_extra.cpp", &c));
}

TEST(Rules, WallClockFires) {
  auto fs = lint_fixture("fire_wall_clock.cpp");
  EXPECT_EQ(fs.size(), count_rule(fs, "wall-clock"));
  EXPECT_TRUE(has(fs, "wall-clock", 3));   // #include <chrono>
  EXPECT_TRUE(has(fs, "wall-clock", 6));   // std::chrono::steady_clock::now()
  EXPECT_TRUE(has(fs, "wall-clock", 7));   // std::chrono::duration
  EXPECT_TRUE(has(fs, "wall-clock", 11));  // time(nullptr)
  EXPECT_TRUE(has(fs, "wall-clock", 12));  // clock()
}

TEST(Rules, RandomnessFires) {
  auto fs = lint_fixture("fire_randomness.cpp");
  EXPECT_EQ(count_rule(fs, "randomness"), 3u);
  EXPECT_TRUE(has(fs, "randomness", 6));  // std::random_device
  EXPECT_TRUE(has(fs, "randomness", 7));  // std::mt19937
  EXPECT_TRUE(has(fs, "randomness", 8));  // rand()
}

TEST(Rules, ThreadIdentityFires) {
  auto fs = lint_fixture("fire_thread_identity.cpp");
  EXPECT_EQ(count_rule(fs, "thread-identity"), 2u);
  EXPECT_TRUE(has(fs, "thread-identity", 5));  // thread_local
  EXPECT_TRUE(has(fs, "thread-identity", 8));  // std::this_thread
}

TEST(Rules, UnorderedContainerFires) {
  auto fs = lint_fixture("fire_unordered.cpp");
  EXPECT_EQ(count_rule(fs, "unordered-container"), 4u);
  EXPECT_TRUE(has(fs, "unordered-container", 3));  // include
  EXPECT_TRUE(has(fs, "unordered-container", 4));  // include
  EXPECT_TRUE(has(fs, "unordered-container", 6));  // parameter type
  EXPECT_TRUE(has(fs, "unordered-container", 7));  // local declaration
}

TEST(Rules, PointerKeyFires) {
  auto fs = lint_fixture("fire_pointer_key.cpp");
  EXPECT_TRUE(has(fs, "pointer-key", 9));   // std::map<const Network*, int>
  EXPECT_TRUE(has(fs, "pointer-key", 13));  // uintptr_t identity
  EXPECT_TRUE(has(fs, "reinterpret-cast", 13));
  EXPECT_GE(count_rule(fs, "pointer-key"), 2u);
}

TEST(Rules, ReinterpretCastFires) {
  auto fs = lint_fixture("fire_reinterpret_cast.cpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "reinterpret-cast");
  EXPECT_EQ(fs[0].line, 12u);
}

TEST(Suppression, WellFormedMarkersSilenceEveryRule) {
  auto fs = lint_fixture("suppressed_ok.cpp");
  EXPECT_TRUE(fs.empty()) << ncc::lint::format_report(
      {fs, 1, 0, 0});
}

TEST(Suppression, MalformedMarkersAreFindings) {
  auto fs = lint_fixture("suppressed_bad.cpp");
  EXPECT_EQ(count_rule(fs, "bad-suppression"), 3u);
  EXPECT_TRUE(has(fs, "bad-suppression", 5));   // missing reason
  EXPECT_TRUE(has(fs, "bad-suppression", 8));   // unknown rule in allow()
  EXPECT_TRUE(has(fs, "bad-suppression", 11));  // unknown tag
  // A failed suppression leaves its target line unprotected.
  EXPECT_TRUE(has(fs, "unordered-container", 6));
  EXPECT_TRUE(has(fs, "unordered-container", 9));
  EXPECT_TRUE(has(fs, "unordered-container", 12));
  // A valid suppression matching nothing is itself flagged.
  EXPECT_TRUE(has(fs, "unused-suppression", 14));
}

TEST(Rules, CleanFileStaysClean) {
  auto fs = lint_fixture("clean.cpp");
  EXPECT_TRUE(fs.empty()) << ncc::lint::format_report({fs, 1, 0, 0});
}

TEST(Rules, ObservationalClassTurnsRulesOff) {
  auto fs = lint_fixture("fire_wall_clock.cpp", FileClass::Observational);
  EXPECT_TRUE(fs.empty());
  // …but malformed suppressions are still findings there.
  auto bad = lint_fixture("suppressed_bad.cpp", FileClass::Observational);
  EXPECT_EQ(count_rule(bad, "bad-suppression"), 3u);
  EXPECT_EQ(count_rule(bad, "unordered-container"), 0u);
}

TEST(Rules, MixedClassEnforcesLikeDeterministic) {
  auto det = lint_fixture("fire_unordered.cpp", FileClass::Deterministic);
  auto mix = lint_fixture("fire_unordered.cpp", FileClass::Mixed);
  EXPECT_EQ(det.size(), mix.size());
}

TEST(Report, DeterministicOrderAndFormat) {
  auto a = lint_fixture("suppressed_bad.cpp");
  auto b = lint_fixture("suppressed_bad.cpp");
  ncc::lint::Report ra{a, 1, 10, 0}, rb{b, 1, 10, 0};
  EXPECT_EQ(ncc::lint::format_report(ra), ncc::lint::format_report(rb));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), ncc::lint::finding_less));
  EXPECT_NE(ncc::lint::format_report(ra).find("suppressed_bad.cpp:5: [bad-suppression]"),
            std::string::npos);
}

// Acceptance gate 1: the real tree, classified by the checked-in manifest,
// has zero unsuppressed findings.
TEST(Tree, FullSrcLintsClean) {
  Manifest manifest;
  std::string err;
  ASSERT_TRUE(ncc::lint::parse_manifest(
      read_file(repo_root() + "/tools/det_lint_manifest.txt"), &manifest, &err))
      << err;

  ncc::lint::Report report;
  ASSERT_TRUE(
      ncc::lint::lint_tree(repo_root(), manifest, {"src"}, &report, &err))
      << err;
  EXPECT_TRUE(report.findings.empty()) << ncc::lint::format_report(report);
  EXPECT_GT(report.files, 80u);       // the walk actually visited the tree
  EXPECT_GT(report.suppressions, 5u); // the boundary is declared, not silent
}

// Acceptance gate 2: seeding an unordered_map iteration into
// overlay/router.cpp (a deterministic file) is caught at the right line.
TEST(Tree, SeededRouterViolationIsCaught) {
  std::string router = read_file(repo_root() + "/src/overlay/router.cpp");
  uint32_t base_lines = 1;
  for (char c : router) base_lines += c == '\n';
  router +=
      "\nstatic int det_lint_seeded_violation() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int s = 0;\n"
      "  for (const auto& [k, v] : m) s += v;\n"
      "  return s;\n"
      "}\n";

  std::vector<Finding> fs;
  ncc::lint::lint_file("src/overlay/router.cpp", router,
                       FileClass::Deterministic, &fs);
  ASSERT_FALSE(fs.empty());
  bool caught = false;
  for (const Finding& f : fs)
    caught |= f.rule == "unordered-container" && f.line == base_lines + 2 &&
              f.file == "src/overlay/router.cpp";
  EXPECT_TRUE(caught) << ncc::lint::format_report({fs, 1, 0, 0});
}

// The walk itself is deterministic: two runs produce byte-identical reports.
TEST(Tree, WalkIsDeterministic) {
  Manifest manifest;
  std::string err;
  ASSERT_TRUE(ncc::lint::parse_manifest(
      read_file(repo_root() + "/tools/det_lint_manifest.txt"), &manifest, &err));
  ncc::lint::Report r1, r2;
  ASSERT_TRUE(ncc::lint::lint_tree(repo_root(), manifest, {"src"}, &r1, &err));
  ASSERT_TRUE(ncc::lint::lint_tree(repo_root(), manifest, {"src"}, &r2, &err));
  EXPECT_EQ(ncc::lint::format_report(r1), ncc::lint::format_report(r2));
}

// Seeded mutation test of the lexer and the manifest parser: four mutants of
// every file under src/, each one to three edits (a byte, a line, or the
// tail), with inserted bytes biased toward the characters the lexer's states
// turn on (quotes, comment openers, escapes, raw-string delimiters,
// newlines). Every mutant is
// linted in every file class: each call returns, each finding points at a
// line the mutant has (a trailing newline may open one more), and a second
// lint of the same bytes reports the same findings. Manifest mutants either
// parse or are rejected with a message.
TEST(LintFuzz, MutatedSourcesLintOrReport) {
  static const char kLexer[] = "\"'/*\\R()\n";
  ncc::Rng rng(0x11f7f022);
  auto mutate = [&rng](std::string text) {
    for (uint64_t edits = 1 + rng.next_below(3); edits > 0 && !text.empty(); --edits) {
      // `at` picks a byte, and the line holding it spans [bol, eol].
      const size_t at = rng.next_below(text.size());
      const size_t nl = at == 0 ? std::string::npos : text.rfind('\n', at - 1);
      const size_t bol = nl == std::string::npos ? 0 : nl + 1;
      const size_t eol = std::min(text.find('\n', at), text.size() - 1);
      const char byte = rng.next_below(4) ? kLexer[rng.next_below(sizeof(kLexer) - 1)]
                                          : static_cast<char>(rng.next_below(256));
      switch (rng.next_below(6)) {
        case 0: text.erase(at, 1); break;
        case 1: text.insert(at, 1, byte); break;
        case 2: text[at] = byte; break;
        case 3: text.erase(bol, eol + 1 - bol); break;
        case 4: text.insert(bol, text.substr(bol, eol + 1 - bol)); break;
        default: text.resize(at); break;
      }
    }
    return text;
  };
  auto key = [](const std::vector<Finding>& fs) {
    std::vector<std::tuple<std::string, uint32_t, std::string, std::string>> k;
    for (const Finding& f : fs) k.emplace_back(f.file, f.line, f.rule, f.detail);
    return k;
  };

  std::vector<std::filesystem::path> sources;
  for (const auto& e : std::filesystem::recursive_directory_iterator(repo_root() + "/src"))
    if (e.is_regular_file()) sources.push_back(e.path());
  std::sort(sources.begin(), sources.end());
  ASSERT_GT(sources.size(), 80u);
  uint64_t findings = 0;
  for (const std::filesystem::path& path : sources) {
    const std::string label = path.lexically_relative(repo_root()).string();
    const std::string text = read_file(path.string());
    for (int m = 0; m < 4; ++m) {
      const std::string mutant = mutate(text);
      const uint32_t lines =
          1 + static_cast<uint32_t>(std::count(mutant.begin(), mutant.end(), '\n'));
      for (FileClass cls :
           {FileClass::Deterministic, FileClass::Mixed, FileClass::Observational}) {
        std::vector<Finding> first, second;
        ncc::lint::lint_file(label, mutant, cls, &first);
        ncc::lint::lint_file(label, mutant, cls, &second);
        EXPECT_EQ(key(first), key(second)) << label;
        for (const Finding& f : first)
          EXPECT_LE(f.line, lines + 1) << label << ": " << f.rule << " " << f.detail;
        findings += first.size();
      }
    }
  }
  // The mutants reach the reporting paths, not only the clean ones.
  EXPECT_GT(findings, 0u);

  const std::string manifest = read_file(repo_root() + "/tools/det_lint_manifest.txt");
  uint64_t rejected = 0;
  const int mutants = 300;
  for (int m = 0; m < mutants; ++m) {
    Manifest out;
    std::string err;
    if (!ncc::lint::parse_manifest(mutate(manifest), &out, &err)) {
      ++rejected;
      EXPECT_FALSE(err.empty()) << "manifest mutant " << m << " rejected without a message";
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, static_cast<uint64_t>(mutants));
}

}  // namespace
