// hcep-lint driver: the project's determinism/units auditor.
//
// Byte-determinism per (seed, shards) is this repo's load-bearing
// invariant — the frozen-controller oracle, the serial/parallel timeline
// identity, and every pinned result hash depend on it. The analyzer
// behind this driver is a real multi-pass checker (not line regexes):
//
//   pass 1  lexer.cpp     comment/string/raw-string-aware tokenizer
//   pass 2  scope.cpp     brace/namespace/class/function scope tracking
//   pass 3  analyzer.cpp  per-file symbol collection + file-local rules
//   pass 4  analyzer.cpp  include graph -> shard-reachable headers ->
//                         cross-file rules
//
// Rule catalog lives in rules.hpp (one SARIF descriptor per rule).
// Findings emit as text (stdout) and optionally SARIF 2.1.0 (--sarif)
// for CI PR annotation. Every run analyzes all of <root>/src from
// scratch and keeps no state between runs; any finding fails the scan.
//
// Suppress a finding by appending
//   // hcep-lint: allow(<rule>)
// to the offending line (grep-able, reviewed like any other annotation);
// this per-line suppression is the only way to accept a finding.
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error.
// `--selftest <fixture-root>` scans a tree seeded with one-or-more live
// violations AND a suppressed twin per rule and exits 0 only when every
// rule fires exactly its expected count — the proof that a planted bug
// actually fails the build and that suppressions actually silence.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "rules.hpp"
#include "sarif.hpp"

namespace fs = std::filesystem;

namespace hcep::lint {
namespace {

struct Options {
  fs::path root;
  fs::path sarif_path;
  bool selftest = false;
  bool list_rules = false;
};

struct ScanResult {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
};

bool has_ext(const fs::path& p, std::initializer_list<const char*> exts) {
  const std::string e = p.extension().string();
  for (const char* x : exts)
    if (e == x) return true;
  return false;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

/// Scans <root>/src.
ScanResult scan_tree(const fs::path& root) {
  const fs::path src = root / "src";
  if (!fs::exists(src)) {
    std::cerr << "hcep-lint: no src/ under " << root << "\n";
    std::exit(2);
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    if (!has_ext(entry.path(), {".hpp", ".h", ".cpp", ".cc"})) continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // deterministic report order

  ScanResult result;
  std::vector<FileFacts> facts;
  facts.reserve(files.size());
  for (const auto& f : files)
    facts.push_back(
        analyze_source(read_file(f), fs::relative(f, root).generic_string()));
  result.files_scanned = files.size();

  for (const auto& ff : facts)
    result.findings.insert(result.findings.end(), ff.findings.begin(),
                           ff.findings.end());
  const std::vector<Finding> cross = project_findings(facts);
  result.findings.insert(result.findings.end(), cross.begin(), cross.end());
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return result;
}

// --- Reporting ---------------------------------------------------------------

int report(const ScanResult& scan, const Options& opt) {
  const std::vector<Finding>& findings = scan.findings;

  if (!opt.sarif_path.empty()) {
    std::ofstream out(opt.sarif_path, std::ios::trunc);
    out << to_sarif(findings);
    if (!out) {
      std::cerr << "hcep-lint: cannot write SARIF to " << opt.sarif_path
                << "\n";
      return 2;
    }
  }

  for (const auto& f : findings)
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  std::cout << "hcep-lint: scanned " << scan.files_scanned << " file(s)\n";
  if (findings.empty()) {
    std::cout << "hcep-lint: clean\n";
    return 0;
  }
  std::cout << "hcep-lint: " << findings.size() << " finding(s)\n";
  return 1;
}

// --- Selftest ----------------------------------------------------------------

int selftest(const fs::path& fixtures) {
  const ScanResult scan = scan_tree(fixtures);
  // Per-rule seeded-violation counts. Every rule in the catalog must
  // appear here with a nonzero count, and every fixture plants a
  // suppressed twin next to each live violation, so an off-count in
  // either direction fails: a rule that stopped firing, a rule that
  // fires on its twin, and a rule with no fixture are all defects.
  const std::map<std::string, std::size_t> expected = {
      {"unit-double", 3},          {"control-unit-double", 2},
      {"nodiscard", 3},            {"unordered-iteration", 2},
      {"banned-call", 1},          {"std-function-hot-path", 1},
      {"rng-seed-flow", 3},        {"pointer-key", 2},
      {"thread-id-identity", 1},   {"float-order-reduction", 1},
      {"shared-mutable-static", 1},{"unit-flow", 1},
      {"site-id-determinism", 2}};
  std::map<std::string, std::size_t> fired;
  for (const auto& f : scan.findings) ++fired[f.rule];
  int rc = 0;
  for (const auto& rule : rule_catalog()) {
    if (!expected.count(rule.id)) {
      std::cout << "selftest: rule " << rule.id
                << " is in the catalog but has no fixture expectation\n";
      rc = 1;
    }
  }
  for (const auto& [rule, want] : expected) {
    if (!known_rule(rule)) {
      std::cout << "selftest: expectation for unknown rule " << rule << "\n";
      rc = 1;
      continue;
    }
    const std::size_t got = fired.count(rule) ? fired.at(rule) : 0;
    if (got == want) {
      std::cout << "selftest: rule " << rule << " fired " << got << "/"
                << want << "\n";
    } else {
      std::cout << "selftest: rule " << rule << " fired " << got
                << " time(s), expected " << want
                << " (suppressed twins must stay silent)\n";
      for (const auto& f : scan.findings)
        if (f.rule == rule)
          std::cout << "  at " << f.file << ":" << f.line << "\n";
      rc = 1;
    }
  }
  for (const auto& [rule, got] : fired) {
    if (!expected.count(rule)) {
      std::cout << "selftest: unexpected rule " << rule << " fired " << got
                << " time(s)\n";
      rc = 1;
    }
  }
  std::cout << "selftest: " << scan.findings.size() << " finding(s) total\n";
  return rc;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "hcep-lint: " << flag << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      opt.root = value("--root");
    } else if (arg == "--selftest") {
      opt.selftest = true;
      opt.root = value("--selftest");
    } else if (arg == "--sarif") {
      opt.sarif_path = value("--sarif");
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: hcep-lint --root <repo> [--sarif out.sarif]\n"
          << "       hcep-lint --selftest <fixtures>\n"
          << "       hcep-lint --list-rules\n";
      return 0;
    } else {
      std::cerr << "hcep-lint: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (opt.list_rules) {
    for (const auto& r : rule_catalog())
      std::cout << r.id << "\n  " << r.summary << "\n";
    return 0;
  }
  if (opt.root.empty()) {
    std::cerr << "hcep-lint: --root is required\n";
    return 2;
  }
  if (opt.selftest) return selftest(opt.root);
  return report(scan_tree(opt.root), opt);
}

}  // namespace
}  // namespace hcep::lint

int main(int argc, char** argv) { return hcep::lint::run(argc, argv); }
