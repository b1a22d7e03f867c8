#include "lint/det_lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace ncc::lint {

namespace {

// ---------------------------------------------------------------------------
// Lexing: blank comments and string/char literals out of the source so the
// rule scan only ever sees code, and collect `//` comment text per line for
// suppression parsing.

struct CommentTok {
  uint32_t line = 0;    // 1-based
  std::string text;     // text after `//`, trimmed
  bool standalone = false;  // nothing but whitespace before the `//`
};

struct Lexed {
  std::string code;                  // contents, comments/strings -> spaces
  std::vector<CommentTok> comments;  // every // comment, in order
  std::vector<size_t> line_start;    // byte offset of each line (1-based idx)
  std::vector<bool> comment_only;    // per line: only whitespace + comments
  uint32_t lines = 0;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// At `i` (a `"`), is this the opening quote of a raw string literal? If so,
/// fill the closing delimiter `)delim"`.
bool raw_string_open(const std::string& s, size_t i, std::string* closer) {
  if (i == 0 || s[i - 1] != 'R') return false;
  // R may itself be prefixed (u8R, uR, UR, LR) but never follow an
  // identifier character other than those prefixes.
  size_t p = i - 1;
  if (p > 0 && ident_char(s[p - 1])) {
    char c = s[p - 1];
    bool prefix = c == 'u' || c == 'U' || c == 'L' ||
                  (c == '8' && p > 1 && s[p - 2] == 'u');
    if (!prefix) return false;
  }
  size_t d = i + 1;
  while (d < s.size() && s[d] != '(' && s[d] != '"' && s[d] != '\n') ++d;
  if (d >= s.size() || s[d] != '(') return false;
  *closer = ")" + s.substr(i + 1, d - i - 1) + "\"";
  return true;
}

Lexed lex(const std::string& src) {
  Lexed out;
  out.code.assign(src.size(), ' ');
  out.line_start.push_back(0);  // dummy: lines are 1-based
  out.line_start.push_back(0);
  uint32_t line = 1;
  bool line_has_code = false;

  auto end_line = [&](size_t next_off) {
    out.comment_only.resize(line + 1, false);
    out.comment_only[line] = !line_has_code;
    ++line;
    line_has_code = false;
    out.line_start.push_back(next_off);
  };

  size_t i = 0;
  const size_t n = src.size();
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      out.code[i] = '\n';
      end_line(i + 1);
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t e = i;
      while (e < n && src[e] != '\n') ++e;
      CommentTok tok;
      tok.line = line;
      tok.text = trim(src.substr(i + 2, e - i - 2));
      tok.standalone = !line_has_code;
      out.comments.push_back(tok);
      i = e;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          out.code[i] = '\n';
          end_line(i + 1);
        }
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    if (c == '"') {
      std::string closer;
      if (raw_string_open(src, i, &closer)) {
        size_t e = src.find(closer, i + 1);
        e = e == std::string::npos ? n : e + closer.size();
        for (size_t j = i; j < e; ++j)
          if (src[j] == '\n') {
            out.code[j] = '\n';
            end_line(j + 1);
          }
        line_has_code = true;
        i = e;
        continue;
      }
      ++i;
      while (i < n && src[i] != '"' && src[i] != '\n') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      if (i < n && src[i] == '"') ++i;
      line_has_code = true;
      continue;
    }
    if (c == '\'' && (i == 0 || !ident_char(src[i - 1]))) {
      ++i;  // char literal (an ident-adjacent ' is a digit separator)
      while (i < n && src[i] != '\'' && src[i] != '\n') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      if (i < n && src[i] == '\'') ++i;
      line_has_code = true;
      continue;
    }
    out.code[i] = c;
    if (!std::isspace(static_cast<unsigned char>(c))) line_has_code = true;
    ++i;
  }
  out.comment_only.resize(line + 1, false);
  out.comment_only[line] = !line_has_code;
  out.lines = line;
  return out;
}

uint32_t line_of(const Lexed& lx, size_t off) {
  auto it = std::upper_bound(lx.line_start.begin() + 1, lx.line_start.end(), off);
  return static_cast<uint32_t>(it - lx.line_start.begin()) - 1;
}

// ---------------------------------------------------------------------------
// Suppressions: `// det-lint: observational — <reason>` and
// `// det-lint: allow(<rule>) — <reason>`.

struct Suppression {
  uint32_t target_line = 0;  // line the suppression scopes
  uint32_t own_line = 0;     // line the comment sits on (for diagnostics)
  bool any_rule = false;     // `observational` form
  std::string rule;          // `allow(<rule>)` form
  uint32_t used = 0;
};

const char* const kRuleNames[] = {
    "wall-clock",     "randomness",          "thread-identity",
    "unordered-container", "pointer-key",    "reinterpret-cast",
};

bool known_rule(const std::string& r) {
  for (const char* k : kRuleNames)
    if (r == k) return true;
  return false;
}

/// Parse one comment. Returns false if the comment is not a det-lint marker
/// at all. Malformed markers produce a bad-suppression finding.
bool parse_suppression(const CommentTok& tok, const std::string& file,
                       Suppression* out, std::vector<Finding>* findings) {
  const std::string& t = tok.text;
  if (t.rfind("det-lint", 0) != 0) {
    // A det-lint marker buried mid-comment is a typo trap: flag it — unless
    // the comment is *quoting* a marker (`// det-lint: …` with an inner //),
    // the idiom documentation uses to show the grammar.
    size_t p = t.find("det-lint:");
    if (p != std::string::npos) {
      size_t q = p;
      while (q > 0 && (t[q - 1] == ' ' || t[q - 1] == '`')) --q;
      bool quoted = q >= 2 && t[q - 1] == '/' && t[q - 2] == '/';
      if (!quoted)
        findings->push_back({file, tok.line, "bad-suppression",
                             "det-lint marker must start the comment"});
    }
    return false;
  }
  std::string rest = trim(t.substr(8));
  if (rest.empty() || rest[0] != ':') {
    findings->push_back({file, tok.line, "bad-suppression",
                         "expected `det-lint: observational — <reason>` or "
                         "`det-lint: allow(<rule>) — <reason>`"});
    return false;
  }
  rest = trim(rest.substr(1));

  // Split tag from reason on the first dash separator (— or - or --).
  size_t dash = std::string::npos;
  size_t dash_len = 0;
  for (size_t i = 0; i < rest.size(); ++i) {
    if (rest.compare(i, 3, "\xe2\x80\x94") == 0) {  // U+2014 em dash
      dash = i, dash_len = 3;
      break;
    }
    if (rest[i] == '-' && (i == 0 || rest[i - 1] == ' ')) {
      dash = i, dash_len = rest.compare(i, 2, "--") == 0 ? 2 : 1;
      break;
    }
  }
  std::string tag = trim(dash == std::string::npos ? rest : rest.substr(0, dash));
  std::string reason =
      dash == std::string::npos ? "" : trim(rest.substr(dash + dash_len));

  Suppression s;
  s.own_line = tok.line;
  if (tag == "observational") {
    s.any_rule = true;
  } else if (tag.rfind("allow(", 0) == 0 && tag.back() == ')') {
    s.rule = trim(tag.substr(6, tag.size() - 7));
    if (!known_rule(s.rule)) {
      findings->push_back({file, tok.line, "bad-suppression",
                           "unknown rule `" + s.rule + "` in allow()"});
      return false;
    }
  } else {
    findings->push_back({file, tok.line, "bad-suppression",
                         "unknown det-lint tag `" + tag + "`"});
    return false;
  }
  if (reason.empty()) {
    findings->push_back({file, tok.line, "bad-suppression",
                         "suppression without a reason — say why the line is "
                         "outside the deterministic byte prefix"});
    return false;
  }
  *out = s;
  return true;
}

// ---------------------------------------------------------------------------
// Rules. The scan walks identifier tokens of the blanked code; each table
// entry decides from local context whether the token fires.

enum class Shape {
  Distinct,  // the name alone is damning (chrono, mt19937, this_thread…)
  Call,      // generic name; fires only as a call: `time(`, `rand(`, `clock(`
};

struct IdentRule {
  const char* name;
  const char* rule;
  Shape shape;
  const char* hint;
};

const IdentRule kIdentRules[] = {
    // wall-clock
    {"chrono", "wall-clock", Shape::Distinct,
     "wall-clock reads belong on the observational side of the boundary"},
    {"steady_clock", "wall-clock", Shape::Distinct, "wall-clock read"},
    {"system_clock", "wall-clock", Shape::Distinct, "wall-clock read"},
    {"high_resolution_clock", "wall-clock", Shape::Distinct, "wall-clock read"},
    {"clock_gettime", "wall-clock", Shape::Distinct, "wall-clock read"},
    {"gettimeofday", "wall-clock", Shape::Distinct, "wall-clock read"},
    {"timespec_get", "wall-clock", Shape::Distinct, "wall-clock read"},
    {"clock", "wall-clock", Shape::Call, "wall-clock read"},
    {"time", "wall-clock", Shape::Call, "wall-clock read"},
    {"localtime", "wall-clock", Shape::Call, "wall-clock read"},
    {"gmtime", "wall-clock", Shape::Call, "wall-clock read"},
    // randomness
    {"random_device", "randomness", Shape::Distinct,
     "nondeterministic entropy; all randomness must flow through common/rng"},
    {"mt19937", "randomness", Shape::Distinct,
     "std engine outside common/rng; use ncc::Rng (seeded, forkable)"},
    {"mt19937_64", "randomness", Shape::Distinct,
     "std engine outside common/rng; use ncc::Rng (seeded, forkable)"},
    {"minstd_rand", "randomness", Shape::Distinct, "use ncc::Rng"},
    {"minstd_rand0", "randomness", Shape::Distinct, "use ncc::Rng"},
    {"default_random_engine", "randomness", Shape::Distinct, "use ncc::Rng"},
    {"ranlux24", "randomness", Shape::Distinct, "use ncc::Rng"},
    {"ranlux48", "randomness", Shape::Distinct, "use ncc::Rng"},
    {"random_shuffle", "randomness", Shape::Distinct,
     "unspecified source; use ncc::Rng::shuffle"},
    {"rand", "randomness", Shape::Call, "global-state PRNG; use ncc::Rng"},
    {"srand", "randomness", Shape::Call, "global-state PRNG; use ncc::Rng"},
    {"rand_r", "randomness", Shape::Call, "use ncc::Rng"},
    {"drand48", "randomness", Shape::Call, "use ncc::Rng"},
    {"random", "randomness", Shape::Call, "use ncc::Rng"},
    // thread identity
    {"this_thread", "thread-identity", Shape::Distinct,
     "thread identity must never feed deterministic bytes"},
    {"thread_local", "thread-identity", Shape::Distinct,
     "per-thread state feeding outputs makes them depend on the thread"},
    {"pthread_self", "thread-identity", Shape::Distinct, "thread identity"},
    {"gettid", "thread-identity", Shape::Call, "thread identity"},
    // unordered containers
    {"unordered_map", "unordered-container", Shape::Distinct,
     "iteration order is implementation-defined; use FlatMap with an ordered "
     "drain, or annotate why the order cannot leak"},
    {"unordered_set", "unordered-container", Shape::Distinct,
     "iteration order is implementation-defined; use FlatMap with an ordered "
     "drain, or annotate why the order cannot leak"},
    {"unordered_multimap", "unordered-container", Shape::Distinct,
     "implementation-defined order"},
    {"unordered_multiset", "unordered-container", Shape::Distinct,
     "implementation-defined order"},
    // pointer-to-integer identity
    {"uintptr_t", "pointer-key", Shape::Distinct,
     "pointer-derived integers differ between runs (ASLR)"},
    {"intptr_t", "pointer-key", Shape::Distinct,
     "pointer-derived integers differ between runs (ASLR)"},
    // byte dumps
    {"reinterpret_cast", "reinterpret-cast", Shape::Distinct,
     "raw struct bytes include unspecified padding — a hazard for "
     "byte-compared buffers; serialize field by field"},
};

/// Containers whose *key* type must not be a pointer. `hash` covers
/// std::hash<T*> specializations used to build such keys.
const char* const kKeyedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "map", "multimap", "set", "multiset", "hash",
};

bool keyed_container(const std::string& name) {
  for (const char* k : kKeyedContainers)
    if (name == k) return true;
  return false;
}

/// First template argument after `pos` (which must point at `<`). Returns
/// false when no balanced argument list is found nearby.
bool first_template_arg(const std::string& code, size_t pos, std::string* arg) {
  int depth = 0;
  size_t limit = std::min(code.size(), pos + 4096);
  for (size_t i = pos; i < limit; ++i) {
    char c = code[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (--depth == 0) {
        *arg = code.substr(pos + 1, i - pos - 1);
        return true;
      }
    } else if (c == ',' && depth == 1) {
      *arg = code.substr(pos + 1, i - pos - 1);
      return true;
    } else if (c == ';' || c == '{') {
      return false;  // not a template argument list after all
    }
  }
  return false;
}

size_t skip_ws(const std::string& s, size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

/// Identifier directly before offset `i` (skipping nothing), or "".
std::string ident_before(const std::string& s, size_t i) {
  size_t e = i;
  while (e > 0 && ident_char(s[e - 1])) --e;
  return s.substr(e, i - e);
}

/// Keywords that legitimately precede a call expression — anything else
/// directly before `name(` means `name` is being *declared* (`uint64_t
/// time() const`), not called.
bool call_context_keyword(const std::string& w) {
  return w == "return" || w == "throw" || w == "else" || w == "case" ||
         w == "new" || w == "delete" || w == "do" || w == "co_return" ||
         w == "co_await" || w == "co_yield";
}

/// True when the identifier starting at `b` is preceded (modulo spaces) by
/// another identifier that is not a call-context keyword — i.e. this is a
/// declaration of a member/function that merely shadows a libc name.
bool declaration_context(const std::string& code, size_t b) {
  size_t p = b;
  while (p > 0 && (code[p - 1] == ' ' || code[p - 1] == '\t')) --p;
  if (p == 0 || !ident_char(code[p - 1])) return false;
  return !call_context_keyword(ident_before(code, p));
}

void scan_rules(const std::string& file, const Lexed& lx,
                std::vector<Finding>* out) {
  const std::string& code = lx.code;
  size_t i = 0;
  const size_t n = code.size();
  while (i < n) {
    if (!ident_char(code[i]) ||
        std::isdigit(static_cast<unsigned char>(code[i]))) {
      ++i;
      continue;
    }
    size_t b = i;
    while (i < n && ident_char(code[i])) ++i;
    std::string name = code.substr(b, i - b);

    // Context: member access (`x.time(...)`, `p->clock()`) is never the
    // global facility; a non-std qualifier (`obs::time`) only exempts the
    // generic call-shaped names.
    bool member = (b >= 1 && code[b - 1] == '.') ||
                  (b >= 2 && code[b - 1] == '>' && code[b - 2] == '-');
    bool qualified = b >= 2 && code[b - 1] == ':' && code[b - 2] == ':';
    std::string qualifier = qualified ? ident_before(code, b - 2) : "";
    uint32_t line = line_of(lx, b);

    for (const IdentRule& r : kIdentRules) {
      if (name != r.name) continue;
      if (member) break;
      if (r.shape == Shape::Call) {
        if (qualified && qualifier != "std") break;
        size_t a = skip_ws(code, i);
        if (a >= n || code[a] != '(') break;
        if (!qualified && declaration_context(code, b)) break;
      }
      out->push_back({file, line,
                      r.rule, "`" + name + "` — " + r.hint});
      break;
    }

    if (keyed_container(name) && !member) {
      size_t a = skip_ws(code, i);
      std::string arg;
      if (a < n && code[a] == '<' && first_template_arg(code, a, &arg) &&
          arg.find('*') != std::string::npos) {
        out->push_back(
            {file, line, "pointer-key",
             "`" + name + "<" + trim(arg) +
                 ", …>` — pointer keys differ between runs (ASLR); key by a "
                 "stable id instead"});
      }
    }
  }
}

}  // namespace

bool Manifest::classify(const std::string& rel_path, FileClass* out) const {
  size_t best = 0;
  bool found = false;
  for (const ManifestEntry& e : entries) {
    if (rel_path.compare(0, e.prefix.size(), e.prefix) != 0) continue;
    // A directory prefix must match at a path boundary.
    if (rel_path.size() > e.prefix.size() && !e.prefix.empty() &&
        e.prefix.back() != '/' && rel_path[e.prefix.size()] != '/')
      continue;
    if (!found || e.prefix.size() > best) {
      best = e.prefix.size();
      *out = e.cls;
      found = true;
    }
  }
  return found;
}

bool parse_manifest(const std::string& text, Manifest* out, std::string* error) {
  out->entries.clear();
  std::istringstream is(text);
  std::string line;
  uint32_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream ls(t);
    std::string cls, prefix, extra;
    ls >> cls >> prefix;
    if (ls >> extra) {
      *error = "manifest line " + std::to_string(lineno) + ": trailing `" +
               extra + "`";
      return false;
    }
    FileClass fc;
    if (cls == "deterministic") {
      fc = FileClass::Deterministic;
    } else if (cls == "mixed") {
      fc = FileClass::Mixed;
    } else if (cls == "observational") {
      fc = FileClass::Observational;
    } else {
      *error = "manifest line " + std::to_string(lineno) +
               ": unknown class `" + cls + "`";
      return false;
    }
    if (prefix.empty()) {
      *error = "manifest line " + std::to_string(lineno) + ": missing path";
      return false;
    }
    out->entries.push_back({prefix, fc});
  }
  if (out->entries.empty()) {
    *error = "manifest declares no entries";
    return false;
  }
  return true;
}

bool finding_less(const Finding& a, const Finding& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.detail < b.detail;
}

void lint_file(const std::string& path_label, const std::string& contents,
               FileClass cls, std::vector<Finding>* out) {
  Lexed lx = lex(contents);

  // Suppressions first: malformed markers are findings in every class.
  std::vector<Suppression> sups;
  for (const CommentTok& tok : lx.comments) {
    Suppression s;
    if (!parse_suppression(tok, path_label, &s, out)) continue;
    if (tok.standalone) {
      // A standalone suppression scopes the next line that holds code,
      // skipping further comment-only lines so several suppressions can
      // stack above one statement.
      uint32_t t = tok.line + 1;
      while (t <= lx.lines && lx.comment_only[t]) ++t;
      s.target_line = t;
    } else {
      s.target_line = tok.line;
    }
    sups.push_back(s);
  }

  if (cls == FileClass::Observational) return;  // rules off; syntax checked

  std::vector<Finding> raw;
  scan_rules(path_label, lx, &raw);

  for (const Finding& f : raw) {
    bool suppressed = false;
    for (Suppression& s : sups) {
      if (s.target_line != f.line) continue;
      if (s.any_rule || s.rule == f.rule) {
        ++s.used;
        suppressed = true;
      }
    }
    if (!suppressed) out->push_back(f);
  }
  for (const Suppression& s : sups) {
    if (s.used == 0)
      out->push_back({path_label, s.own_line, "unused-suppression",
                      "suppression matches no finding on line " +
                          std::to_string(s.target_line) +
                          " — remove it or fix its placement"});
  }
}

namespace {

bool cpp_source(const std::filesystem::path& p) {
  std::string e = p.extension().string();
  return e == ".cpp" || e == ".hpp" || e == ".h" || e == ".cc" || e == ".cxx";
}

uint64_t count_lines(const std::string& s) {
  uint64_t n = s.empty() ? 0 : 1;
  for (char c : s)
    if (c == '\n') ++n;
  return n;
}

uint64_t count_suppressions_used(const std::string& path_label,
                                 const std::string& contents, FileClass cls) {
  // Re-lint with suppressions disabled conceptually: the difference between
  // raw findings and reported findings is the honored-suppression count.
  if (cls == FileClass::Observational) return 0;
  Lexed lx = lex(contents);
  std::vector<Finding> raw;
  scan_rules(path_label, lx, &raw);
  std::vector<Finding> reported;
  lint_file(path_label, contents, cls, &reported);
  uint64_t extra = 0;  // bad/unused-suppression findings are not rule hits
  for (const Finding& f : reported)
    if (f.rule == "bad-suppression" || f.rule == "unused-suppression") ++extra;
  return raw.size() - (reported.size() - extra);
}

}  // namespace

bool lint_tree(const std::string& repo_root, const Manifest& manifest,
               const std::vector<std::string>& roots, Report* out,
               std::string* error) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    fs::path abs = fs::path(repo_root) / root;
    std::error_code ec;
    if (fs::is_regular_file(abs, ec)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(abs, ec)) {
      *error = "lint root not found: " + abs.string();
      return false;
    }
    for (fs::recursive_directory_iterator it(abs, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        *error = "walking " + abs.string() + ": " + ec.message();
        return false;
      }
      if (!it->is_regular_file() || !cpp_source(it->path())) continue;
      files.push_back(fs::relative(it->path(), repo_root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  for (const std::string& rel : files) {
    std::ifstream is(fs::path(repo_root) / rel, std::ios::binary);
    if (!is) {
      *error = "cannot read " + rel;
      return false;
    }
    std::stringstream buf;
    buf << is.rdbuf();
    std::string contents = buf.str();

    FileClass cls;
    if (!manifest.classify(rel, &cls)) {
      out->findings.push_back(
          {rel, 1, "unclassified",
           "no manifest entry covers this file — classify it in "
           "tools/det_lint_manifest.txt"});
      ++out->files;
      out->lines += count_lines(contents);
      continue;
    }
    lint_file(rel, contents, cls, &out->findings);
    out->suppressions += count_suppressions_used(rel, contents, cls);
    ++out->files;
    out->lines += count_lines(contents);
  }
  std::sort(out->findings.begin(), out->findings.end(), finding_less);
  return true;
}

std::string format_report(const Report& report) {
  std::ostringstream os;
  for (const Finding& f : report.findings)
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.detail
       << "\n";
  os << "det_lint: " << report.findings.size() << " finding"
     << (report.findings.size() == 1 ? "" : "s") << " in " << report.files
     << " files (" << report.lines << " lines, " << report.suppressions
     << " suppressions honored)\n";
  return os.str();
}

}  // namespace ncc::lint
