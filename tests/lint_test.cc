// Tests for tools/lint: each rule against its fixture pair under
// tests/lint_fixtures/, NOLINT suppression, the JSON report shape, and the
// comment/string-blanking scanner underneath the token matcher.

#include "tools/lint/lint.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/lint/driver.h"
#include "tools/lint/model.h"

namespace dpaudit {
namespace lint {
namespace {

std::vector<Finding> LintSnippet(const std::string& rel,
                                 const std::string& code) {
  std::vector<Finding> findings;
  LintFile(PrepareSource(rel, code), {}, &findings);
  return findings;
}

std::vector<Finding> LintFixture(const std::string& name) {
  const std::string root = DPAUDIT_LINT_FIXTURES_DIR;
  std::vector<Finding> findings;
  EXPECT_TRUE(LintPath(root + "/src/" + name, root, {}, &findings))
      << "cannot read fixture " << name;
  return findings;
}

struct FixtureCase {
  const char* rule;
  const char* bad;  // must be flagged, and only by `rule`
  const char* ok;   // must be clean
};

const FixtureCase kFixtureCases[] = {
    {"dpaudit-rng", "rng_bad.cc", "rng_ok.cc"},
    {"dpaudit-stdout", "stdout_bad.cc", "stdout_ok.cc"},
    {"dpaudit-cerr", "cerr_bad.cc", "cerr_ok.cc"},
    {"dpaudit-unordered-float", "unordered_float_bad.cc",
     "unordered_float_ok.cc"},
    {"dpaudit-omp", "omp_bad.cc", "omp_ok.cc"},
    {"dpaudit-include-guard", "include_guard_bad.h", "include_guard_ok.h"},
    {"dpaudit-include-guard", "include_guard_mismatch.h",
     "include_guard_ok.h"},
    {"dpaudit-lane-alias", "lane_alias_bad.cc", "lane_alias_ok.cc"},
    {"dpaudit-ledger-write", "ledger_write_bad.cc", "ledger_write_ok.cc"},
    {"dpaudit-banned-fn", "banned_fn_bad.cc", "banned_fn_ok.cc"},
    {"dpaudit-raw-thread", "raw_thread_bad.cc", "raw_thread_ok.cc"},
    {"dpaudit-raw-getenv", "raw_getenv_bad.cc", "raw_getenv_ok.cc"},
    {"dpaudit-include-order", "include_order_bad.cc",
     "include_order_ok.cc"},
};

// Graph rules whose verdict on a file depends on the rest of the tree: the
// fixtures live in the tree/ mini-repository (src/ plus the tests/ that
// include from it), linted whole, and the row's files are picked out.
const FixtureCase kTreeFixtureCases[] = {
    {"dpaudit-unreached-module", "util/unreached_bad.h",
     "util/unreached_ok.h"},
};

std::vector<Finding> LintTreeFixture(const std::string& name,
                                     const std::string& rule) {
  const std::string root = std::string(DPAUDIT_LINT_FIXTURES_DIR) + "/tree";
  TreeLintOptions options;
  options.root = root;
  options.layers_path = root + "/layers.txt";
  options.rules = {rule};
  const TreeLintResult result = LintTree({"src", "tests"}, options);
  EXPECT_TRUE(result.errors.empty());
  std::vector<Finding> findings;
  for (const Finding& f : result.findings) {
    if (f.file == "src/" + name) findings.push_back(f);
  }
  return findings;
}

TEST(LintFixtures, TreeFixtureRowsFlagTheBadFileOnly) {
  for (const FixtureCase& c : kTreeFixtureCases) {
    const std::vector<Finding> bad = LintTreeFixture(c.bad, c.rule);
    EXPECT_FALSE(bad.empty()) << c.bad << " produced no findings";
    for (const Finding& f : bad) {
      EXPECT_EQ(f.rule, c.rule) << c.bad;
      EXPECT_FALSE(f.message.empty());
    }
    EXPECT_TRUE(LintTreeFixture(c.ok, c.rule).empty()) << c.ok;
  }
}

TEST(LintFixtures, EveryBadFixtureIsFlaggedByExactlyItsRule) {
  for (const FixtureCase& c : kFixtureCases) {
    const std::vector<Finding> findings = LintFixture(c.bad);
    EXPECT_FALSE(findings.empty()) << c.bad << " produced no findings";
    for (const Finding& f : findings) {
      EXPECT_EQ(f.rule, c.rule) << c.bad << " line " << f.line;
      EXPECT_GT(f.line, 0);
      EXPECT_FALSE(f.message.empty());
    }
  }
}

TEST(LintFixtures, EveryOkFixtureIsClean) {
  std::set<std::string> ok_files;
  for (const FixtureCase& c : kFixtureCases) ok_files.insert(c.ok);
  ok_files.insert("nolint_ok.cc");
  for (const std::string& name : ok_files) {
    const std::vector<Finding> findings = LintFixture(name);
    std::ostringstream detail;
    WriteText(findings, detail);
    EXPECT_TRUE(findings.empty()) << name << ":\n" << detail.str();
  }
}

TEST(LintFixtures, DirectoryScanFlagsAllBadAndNoOkFiles) {
  const std::string root = DPAUDIT_LINT_FIXTURES_DIR;
  std::vector<Finding> findings;
  for (const std::string& file : CollectFiles(root + "/src")) {
    ASSERT_TRUE(LintPath(file, root, {}, &findings));
  }
  std::set<std::string> flagged;
  for (const Finding& f : findings) flagged.insert(f.file);
  std::set<std::string> expected;
  for (const FixtureCase& c : kFixtureCases) {
    expected.insert(std::string("src/") + c.bad);
  }
  EXPECT_EQ(flagged, expected);
}

TEST(LintFixtures, EveryRuleHasAFixture) {
  std::set<std::string> covered;
  for (const FixtureCase& c : kFixtureCases) covered.insert(c.rule);
  for (const FixtureCase& c : kTreeFixtureCases) covered.insert(c.rule);
  for (const Rule& rule : AllRules()) {
    EXPECT_EQ(covered.count(rule.name), 1u)
        << rule.name << " has no fixture pair";
  }
  for (const std::string& rule : covered) EXPECT_TRUE(IsKnownRule(rule));
  EXPECT_EQ(AllRules().size(), 12u);
  EXPECT_EQ(covered.size(), 13u);
}

TEST(LintEngine, RuleFilterRunsOnlyRequestedRules) {
  const std::string root = DPAUDIT_LINT_FIXTURES_DIR;
  std::vector<Finding> findings;
  ASSERT_TRUE(LintPath(root + "/src/stdout_bad.cc", root,
                       {"dpaudit-banned-fn"}, &findings));
  EXPECT_TRUE(findings.empty());
}

TEST(LintEngine, TokensInsideCommentsAndStringsAreIgnored) {
  EXPECT_TRUE(LintSnippet("src/a.cc",
                          "// std::cout << 1; printf(\"x\");\n"
                          "const char* s = \"std::cout\";\n"
                          "/* std::cerr << 2; */\n")
                  .empty());
  EXPECT_TRUE(LintSnippet("src/a.cc",
                          "const char* s = R\"(std::cout << rand();)\";\n")
                  .empty());
}

TEST(LintEngine, ScopedRulesDoNotFireOutsideSrc) {
  EXPECT_TRUE(LintSnippet("bench/b.cc", "std::cout << 1;\n").empty());
  EXPECT_TRUE(LintSnippet("tools/t.cc", "std::cerr << 1;\n").empty());
  EXPECT_FALSE(LintSnippet("src/s.cc", "std::cout << 1;\n").empty());
  // dpaudit-rng applies everywhere outside util/random.
  EXPECT_FALSE(LintSnippet("bench/b.cc", "std::mt19937 rng(1);\n").empty());
  EXPECT_TRUE(
      LintSnippet("src/util/random.cc", "std::mt19937 rng(1);\n").empty());
}

TEST(LintEngine, NolintSuppressesOnlyTheListedRule) {
  EXPECT_TRUE(LintSnippet("src/a.cc",
                          "std::cout << 1;  // NOLINT(dpaudit-stdout)\n")
                  .empty());
  EXPECT_FALSE(LintSnippet("src/a.cc",
                           "std::cout << 1;  // NOLINT(dpaudit-rng)\n")
                   .empty());
  EXPECT_TRUE(LintSnippet("src/a.cc", "std::cout << 1;  // NOLINT\n")
                  .empty());
  EXPECT_TRUE(LintSnippet("src/a.cc",
                          "// NOLINTNEXTLINE(dpaudit-stdout)\n"
                          "std::cout << 1;\n")
                  .empty());
}

TEST(LintEngine, ExpectedGuardFollowsRepoConvention) {
  EXPECT_EQ(ExpectedGuard("src/util/logging.h"), "DPAUDIT_UTIL_LOGGING_H_");
  EXPECT_EQ(ExpectedGuard("bench/bench_common.h"),
            "DPAUDIT_BENCH_BENCH_COMMON_H_");
  EXPECT_EQ(ExpectedGuard("tests/test_helpers.h"),
            "DPAUDIT_TESTS_TEST_HELPERS_H_");
  EXPECT_EQ(ExpectedGuard("tools/lint/lint.h"),
            "DPAUDIT_TOOLS_LINT_LINT_H_");
}

TEST(LintEngine, PragmaOnceSatisfiesTheGuardRule) {
  EXPECT_TRUE(
      LintSnippet("src/h.h", "#pragma once\nint F();\n").empty());
  EXPECT_FALSE(LintSnippet("src/h.h", "int F();\n").empty());
}

TEST(LintReport, JsonShapeCarriesFindingsAndCounts) {
  const std::vector<Finding> findings = LintFixture("stdout_bad.cc");
  ASSERT_FALSE(findings.empty());
  std::ostringstream out;
  WriteJson(findings, 1, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("{\"findings\":["), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/stdout_bad.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"dpaudit-stdout\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":"), std::string::npos);
  EXPECT_NE(json.find("\"message\":\""), std::string::npos);
  EXPECT_NE(json.find("\"finding_count\":" +
                      std::to_string(findings.size())),
            std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\":1"), std::string::npos);
  // Well-formed: braces and brackets balance.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(LintReport, EmptyReportIsWellFormed) {
  std::ostringstream out;
  WriteJson({}, 42, out);
  EXPECT_EQ(out.str(),
            "{\"findings\":[],\"finding_count\":0,\"files_scanned\":42}\n");
}

}  // namespace
}  // namespace lint
}  // namespace dpaudit
