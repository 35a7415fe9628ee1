// Unit tests for the hcep-lint analyzer passes (tools/lint/). The
// end-to-end rule behavior is pinned by `hcep_lint --selftest` over the
// fixture tree; these tests pin the *layers* the rules stand on — the
// tokenizer's comment/string/raw-string handling, the scope tracker's
// brace classification, the analyzer's per-file and cross-file passes,
// and the SARIF export (re-parsed with the repo's own strict JSON
// parser).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyzer.hpp"
#include "hcep/util/json.hpp"
#include "lexer.hpp"
#include "rules.hpp"
#include "sarif.hpp"
#include "scope.hpp"

namespace lint = hcep::lint;

namespace {

bool has_ident(const lint::LexResult& lr, const std::string& name) {
  for (const auto& t : lr.tokens)
    if (t.kind == lint::TokenKind::kIdentifier && t.text == name) return true;
  return false;
}

std::vector<std::string> rules_fired(const lint::FileFacts& facts) {
  std::vector<std::string> out;
  for (const auto& f : facts.findings) out.push_back(f.rule);
  return out;
}

// --- Lexer -------------------------------------------------------------------

TEST(LintLexer, RawStringBodyIsOpaque) {
  // rand() inside a raw string must not surface as identifier tokens —
  // the old line-oriented checker false-positived on exactly this.
  const lint::LexResult lr =
      lint::lex("const char* s = R\"doc(call rand() now)doc\";\n"
                "int x = 0;\n");
  EXPECT_FALSE(has_ident(lr, "rand"));
  ASSERT_EQ(lr.tokens.size(), 12u);  // const char * s = <str> ; int x = 0 ;
  EXPECT_EQ(lr.tokens[5].kind, lint::TokenKind::kString);
  EXPECT_EQ(lr.tokens[5].text, "call rand() now");
}

TEST(LintLexer, RawStringDelimiterMustMatch) {
  // A ")x" inside the body does not close an R"y(...)y" literal.
  const lint::LexResult lr =
      lint::lex("auto s = R\"y(a )x\" b)y\"; int after = 1;\n");
  EXPECT_TRUE(has_ident(lr, "after"));
  EXPECT_FALSE(has_ident(lr, "b"));
}

TEST(LintLexer, LineContinuationCommentSwallowsNextLine) {
  // A `//` comment ending in a backslash continues onto the next source
  // line, taking any "code" there with it.
  const lint::LexResult lr =
      lint::lex("int a = 1;\n"
                "// swallowed \\\n"
                "int hidden = 2;\n"
                "int b = 3;\n");
  EXPECT_TRUE(has_ident(lr, "a"));
  EXPECT_FALSE(has_ident(lr, "hidden"));
  EXPECT_TRUE(has_ident(lr, "b"));
  // Line numbers survive the swallow: b sits on line 4.
  for (const auto& t : lr.tokens) {
    if (t.kind == lint::TokenKind::kIdentifier && t.text == "b") {
      EXPECT_EQ(t.line, 4u);
    }
  }
}

TEST(LintLexer, DirectivesFoldToOneToken) {
  const lint::LexResult lr =
      lint::lex("#include \"hcep/util/units.hpp\"\n"
                "#define TWO \\\n"
                "  2\n"
                "int x = TWO;\n");
  std::size_t directives = 0;
  for (const auto& t : lr.tokens)
    if (t.kind == lint::TokenKind::kDirective) ++directives;
  EXPECT_EQ(directives, 2u);
  EXPECT_TRUE(has_ident(lr, "x"));
}

TEST(LintLexer, GreedyPunctuators) {
  const lint::LexResult lr = lint::lex("a <=> b; c += d; e->f; g::h;\n");
  std::vector<std::string> puncts;
  for (const auto& t : lr.tokens)
    if (t.kind == lint::TokenKind::kPunct) puncts.push_back(t.text);
  EXPECT_EQ(puncts, (std::vector<std::string>{"<=>", ";", "+=", ";", "->",
                                              ";", "::", ";"}));
}

TEST(LintLexer, SuppressionCommentsBothSpellings) {
  const lint::LexResult lr =
      lint::lex("int a;  // hcep-lint: allow(unit-double)\n"
                "int b;  // NOLINT(banned-call)\n"
                "int c;\n");
  EXPECT_TRUE(lint::suppressed(lr, 1, "unit-double"));
  EXPECT_FALSE(lint::suppressed(lr, 1, "banned-call"));
  EXPECT_TRUE(lint::suppressed(lr, 2, "banned-call"));
  EXPECT_FALSE(lint::suppressed(lr, 3, "unit-double"));
}

// --- Scope tracker -----------------------------------------------------------

TEST(LintScope, ClassMemberVsFunctionLocal) {
  const std::string src =
      "namespace hcep::power {\n"
      "class Meter {\n"
      " public:\n"
      "  void run() {\n"
      "    int local = 0;\n"
      "  }\n"
      "  int member_;\n"
      "};\n"
      "}\n";
  const lint::LexResult lr = lint::lex(src);
  const std::vector<lint::ScopeInfo> scopes = lint::track_scopes(lr.tokens);
  ASSERT_EQ(scopes.size(), lr.tokens.size());
  for (std::size_t i = 0; i < lr.tokens.size(); ++i) {
    const auto& t = lr.tokens[i];
    if (t.kind != lint::TokenKind::kIdentifier) continue;
    if (t.text == "local") {
      EXPECT_TRUE(scopes[i].in_function);
      EXPECT_EQ(scopes[i].function_name, "run");
      EXPECT_FALSE(scopes[i].at_class_scope);
    } else if (t.text == "member_") {
      EXPECT_FALSE(scopes[i].in_function);
      EXPECT_TRUE(scopes[i].at_class_scope);
      EXPECT_EQ(scopes[i].class_name, "Meter");
      EXPECT_EQ(scopes[i].namespace_path, "hcep::power");
    }
  }
}

TEST(LintScope, ControlFlowBracesAreNotFunctions) {
  const std::string src =
      "void f() {\n"
      "  if (1) { int inside_if = 0; }\n"
      "  for (int i = 0; i < 3; ++i) { int inside_for = 0; }\n"
      "}\n";
  const lint::LexResult lr = lint::lex(src);
  const std::vector<lint::ScopeInfo> scopes = lint::track_scopes(lr.tokens);
  for (std::size_t i = 0; i < lr.tokens.size(); ++i) {
    const auto& t = lr.tokens[i];
    if (t.text == "inside_if" || t.text == "inside_for") {
      EXPECT_TRUE(scopes[i].in_function);
      EXPECT_EQ(scopes[i].function_name, "f");  // still inside f, not a
                                                // new "if" function
    }
  }
}

// --- Analyzer ----------------------------------------------------------------

TEST(LintAnalyzer, RngSeedFlow) {
  const lint::FileFacts bad = lint::analyze_source(
      "void f() { Rng r; }\n", "src/cluster/x.cpp");
  ASSERT_EQ(bad.findings.size(), 1u);
  EXPECT_EQ(bad.findings[0].rule, "rng-seed-flow");
  EXPECT_EQ(bad.findings[0].line, 1u);

  const lint::FileFacts good = lint::analyze_source(
      "void f(std::uint64_t seed) { Rng r(seed); }\n", "src/cluster/x.cpp");
  EXPECT_TRUE(good.findings.empty());

  // A member seeded by a mem-initializer elsewhere in the file is clean.
  const lint::FileFacts member = lint::analyze_source(
      "struct S { explicit S(std::uint64_t seed) : rng_(seed) {} Rng rng_; };\n",
      "src/cluster/x.cpp");
  EXPECT_TRUE(member.findings.empty());
}

TEST(LintAnalyzer, UnorderedFlowAndFloatReduction) {
  const std::string src =
      "double f(const std::unordered_map<int, double>& m) {\n"
      "  double total = 0.0;\n"
      "  for (const auto& kv : m) {\n"
      "    total += kv.second;\n"
      "  }\n"
      "  return total;\n"
      "}\n";
  const lint::FileFacts facts = lint::analyze_source(src, "src/cluster/x.cpp");
  const std::vector<std::string> fired = rules_fired(facts);
  EXPECT_EQ(fired, (std::vector<std::string>{"unordered-iteration",
                                             "float-order-reduction"}));
}

TEST(LintAnalyzer, SharedMutableStaticNeedsReachability) {
  lint::FileFacts header = lint::analyze_source(
      "static int g_count = 0;\n", "src/include/hcep/shared/c.hpp");
  ASSERT_EQ(header.mutable_statics.size(), 1u);
  EXPECT_TRUE(header.findings.empty());  // per-file pass never fires it

  lint::FileFacts plain_user = lint::analyze_source(
      "#include \"hcep/shared/c.hpp\"\nvoid f();\n", "src/cluster/a.cpp");
  lint::FileFacts shard_user = lint::analyze_source(
      "#include \"hcep/shared/c.hpp\"\nvoid g() { parallel_for(0, 4); }\n",
      "src/cluster/b.cpp");

  // Header + non-shard user: unreachable, no finding.
  EXPECT_TRUE(lint::project_findings({header, plain_user}).empty());
  // Header + shard user: reachable, fires.
  const std::vector<lint::Finding> cross =
      lint::project_findings({header, plain_user, shard_user});
  ASSERT_EQ(cross.size(), 1u);
  EXPECT_EQ(cross[0].rule, "shared-mutable-static");
  EXPECT_EQ(cross[0].file, "src/include/hcep/shared/c.hpp");
}

// --- SARIF -------------------------------------------------------------------

TEST(LintSarif, ParsesWithOwnJsonParserAndCoversCatalog) {
  const std::vector<lint::Finding> findings = {
      {"src/a.cpp", 12, "rng-seed-flow", "message \"with quotes\""},
  };
  const std::string doc = lint::to_sarif(findings);
  const hcep::JsonValue root = hcep::JsonValue::parse(doc);

  EXPECT_EQ(root.at("version").as_string(), "2.1.0");
  const hcep::JsonValue& run = root.at("runs").at(std::size_t{0});
  const hcep::JsonValue& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "hcep-lint");

  // One descriptor per catalog rule, ids matching.
  const auto& catalog = lint::rule_catalog();
  ASSERT_EQ(driver.at("rules").size(), catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i)
    EXPECT_EQ(driver.at("rules").at(i).at("id").as_string(), catalog[i].id);

  const hcep::JsonValue& results = run.at("results");
  ASSERT_EQ(results.size(), 1u);
  const hcep::JsonValue& r0 = results.at(std::size_t{0});
  EXPECT_EQ(r0.at("ruleId").as_string(), "rng-seed-flow");
  EXPECT_EQ(r0.at("message").at("text").as_string(), "message \"with quotes\"");
  const hcep::JsonValue& loc =
      r0.at("locations").at(std::size_t{0}).at("physicalLocation");
  EXPECT_EQ(loc.at("artifactLocation").at("uri").as_string(), "src/a.cpp");
  EXPECT_EQ(loc.at("region").at("startLine").as_int(), 12);

  // Byte-stable for identical input: reports diff cleanly in CI.
  EXPECT_EQ(doc, lint::to_sarif(findings));
}

}  // namespace
