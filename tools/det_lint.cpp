// det_lint — CLI for the determinism-contract checker (src/lint/det_lint).
//
//   det_lint --manifest tools/det_lint_manifest.txt [--repo <root>]
//            [--report out.txt] <root-dir-or-file>...
//
// Lints every C++ source under the given roots (paths relative to --repo,
// default `.`) against the classification manifest and prints the
// deterministic findings report. The `det_lint` ctest and CI's lint job run
// it over src/.
//
// Exit codes:
//   0  clean — no findings
//   1  findings (report printed to stdout, and to --report when given)
//   2  usage or I/O error
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/det_lint.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: det_lint --manifest <manifest.txt> [--repo <root>] "
               "[--report <out.txt>] <root>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path, repo_root = ".", report_path;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--manifest") && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--repo") && i + 1 < argc) {
      repo_root = argv[++i];
    } else if (!std::strcmp(argv[i], "--report") && i + 1 < argc) {
      report_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      roots.push_back(argv[i]);
    }
  }
  if (manifest_path.empty() || roots.empty()) return usage();

  std::ifstream mf(manifest_path);
  if (!mf) {
    std::fprintf(stderr, "det_lint: cannot read manifest %s\n",
                 manifest_path.c_str());
    return 2;
  }
  std::stringstream mbuf;
  mbuf << mf.rdbuf();

  ncc::lint::Manifest manifest;
  std::string error;
  if (!ncc::lint::parse_manifest(mbuf.str(), &manifest, &error)) {
    std::fprintf(stderr, "det_lint: %s: %s\n", manifest_path.c_str(),
                 error.c_str());
    return 2;
  }

  ncc::lint::Report report;
  if (!ncc::lint::lint_tree(repo_root, manifest, roots, &report, &error)) {
    std::fprintf(stderr, "det_lint: %s\n", error.c_str());
    return 2;
  }

  std::string rendered = ncc::lint::format_report(report);
  std::fputs(rendered.c_str(), stdout);
  if (!report_path.empty()) {
    std::ofstream rf(report_path);
    if (!rf) {
      std::fprintf(stderr, "det_lint: cannot write %s\n", report_path.c_str());
      return 2;
    }
    rf << rendered;
  }
  return report.findings.empty() ? 0 : 1;
}
