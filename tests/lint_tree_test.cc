// Tests for the tree-wide half of dpaudit_lint: the graph rules against
// the synthetic mini-tree under tests/lint_fixtures/tree/, the --fix
// rewriter's idempotency, the SARIF report shape, the layers.txt parser,
// and the pass-1 lexer underneath it all.

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tools/lint/driver.h"
#include "tools/lint/fix.h"
#include "tools/lint/lexer.h"
#include "tools/lint/lint.h"
#include "tools/lint/model.h"

namespace dpaudit {
namespace lint {
namespace {

std::string FixtureTreeRoot() {
  return std::string(DPAUDIT_LINT_FIXTURES_DIR) + "/tree";
}

TreeLintOptions TreeOptions(const std::string& root) {
  TreeLintOptions options;
  options.root = root;
  options.layers_path = root + "/layers.txt";
  return options;
}

std::set<std::pair<std::string, std::string>> FileRulePairs(
    const std::vector<Finding>& findings) {
  std::set<std::pair<std::string, std::string>> pairs;
  for (const Finding& f : findings) pairs.insert({f.file, f.rule});
  return pairs;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// Graph rules over the synthetic mini-tree.

TEST(TreeFixture, FlagsExactlyTheExpectedGraphFindings) {
  const TreeLintResult result =
      LintTree({"src", "tests"}, TreeOptions(FixtureTreeRoot()));
  ASSERT_TRUE(result.errors.empty()) << result.errors.front();
  const std::set<std::pair<std::string, std::string>> expected = {
      {"src/core/flow_bad.cc", "dpaudit-mechanism-flow"},
      {"src/core/ledger_naughty.cc", "dpaudit-layering"},
      {"src/core/literal_sigma.cc", "dpaudit-mechanism-flow"},
      {"src/core/missing_inc.cc", "dpaudit-missing-include"},
      {"src/core/raw_noise.cc", "dpaudit-mechanism-flow"},
      {"src/core/unused_inc.cc", "dpaudit-unused-include"},
      {"src/obs/cycle_a.h", "dpaudit-include-cycle"},
      {"src/util/layer_bad.h", "dpaudit-layering"},
      {"src/util/unreached_bad.h", "dpaudit-unreached-module"},
  };
  std::ostringstream detail;
  WriteText(result.findings, detail);
  EXPECT_EQ(FileRulePairs(result.findings), expected) << detail.str();
  for (const Finding& f : result.findings) {
    EXPECT_GT(f.line, 0) << f.file;
    EXPECT_FALSE(f.message.empty()) << f.file;
  }
}

TEST(TreeFixture, RuleFilterRestrictsGraphRules) {
  TreeLintOptions options = TreeOptions(FixtureTreeRoot());
  options.rules = {"dpaudit-layering"};
  const TreeLintResult result = LintTree({"src"}, options);
  ASSERT_TRUE(result.errors.empty());
  const std::set<std::pair<std::string, std::string>> expected = {
      {"src/core/ledger_naughty.cc", "dpaudit-layering"},
      {"src/util/layer_bad.h", "dpaudit-layering"},
  };
  EXPECT_EQ(FileRulePairs(result.findings), expected);
}

TEST(TreeFixture, UnreachedModuleNeedsIncludersInView) {
  // Linting src/ alone shows no includer outside it, so every header would
  // look unreached; the rule stays quiet instead.
  TreeLintOptions options = TreeOptions(FixtureTreeRoot());
  options.rules = {"dpaudit-unreached-module"};
  EXPECT_TRUE(LintTree({"src"}, options).findings.empty());
  const TreeLintResult result = LintTree({"src", "tests"}, options);
  ASSERT_TRUE(result.errors.empty());
  const std::set<std::pair<std::string, std::string>> expected = {
      {"src/util/unreached_bad.h", "dpaudit-unreached-module"},
  };
  EXPECT_EQ(FileRulePairs(result.findings), expected);
}

TEST(TreeFixture, NoGraphRunsOnlyPerFileRules) {
  TreeLintOptions options = TreeOptions(FixtureTreeRoot());
  options.graph_rules = false;
  const TreeLintResult result = LintTree({"src"}, options);
  ASSERT_TRUE(result.errors.empty());
  std::ostringstream detail;
  WriteText(result.findings, detail);
  // The mini-tree is per-file clean; every finding is a graph finding.
  EXPECT_TRUE(result.findings.empty()) << detail.str();
}

// ---------------------------------------------------------------------------
// The --fix rewriter.

TEST(Fix, SortsIncludeBlocksAndIsIdempotent) {
  const std::string bad = ReadWholeFile(
      std::string(DPAUDIT_LINT_FIXTURES_DIR) + "/src/include_order_bad.cc");
  const std::string once = Canonicalize("src/include_order_bad.cc", bad);
  EXPECT_NE(once, bad);
  EXPECT_NE(once.find("#include <vector>\n#include \"util/helper.h\""),
            std::string::npos);
  EXPECT_EQ(Canonicalize("src/include_order_bad.cc", once), once);
}

TEST(Fix, LeavesCanonicalFilesAlone) {
  const std::string ok = ReadWholeFile(
      std::string(DPAUDIT_LINT_FIXTURES_DIR) + "/src/include_order_ok.cc");
  EXPECT_EQ(Canonicalize("src/include_order_ok.cc", ok), ok);
}

TEST(Fix, RenamesAMismatchedGuardEverywhere) {
  const std::string in =
      "#ifndef WRONG_GUARD_H\n"
      "#define WRONG_GUARD_H\n"
      "int F();\n"
      "#endif  // WRONG_GUARD_H\n";
  const std::string fixed = Canonicalize("src/util/thing.h", in);
  EXPECT_NE(fixed.find("#ifndef DPAUDIT_UTIL_THING_H_"), std::string::npos);
  EXPECT_NE(fixed.find("#define DPAUDIT_UTIL_THING_H_"), std::string::npos);
  EXPECT_EQ(fixed.find("WRONG_GUARD_H"), std::string::npos);
  EXPECT_EQ(Canonicalize("src/util/thing.h", fixed), fixed);
}

TEST(Fix, InsertsAGuardIntoAGuardlessHeader) {
  const std::string in =
      "// A comment prologue.\n"
      "\n"
      "int F();\n";
  const std::string fixed = Canonicalize("src/util/thing.h", in);
  EXPECT_NE(fixed.find("#ifndef DPAUDIT_UTIL_THING_H_"), std::string::npos);
  EXPECT_NE(fixed.find("#endif  // DPAUDIT_UTIL_THING_H_"),
            std::string::npos);
  EXPECT_EQ(Canonicalize("src/util/thing.h", fixed), fixed);
  // The fixed header passes the guard rule.
  std::vector<Finding> findings;
  LintFile(PrepareSource("src/util/thing.h", fixed), {}, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(Fix, DoesNotReorderAcrossPreprocessorBoundaries) {
  const std::string in =
      "#include \"b.h\"\n"
      "#ifdef SOME_FLAG\n"
      "#include \"a.h\"\n"
      "#endif\n";
  // The #ifdef splits the blocks; nothing is sorted across it.
  EXPECT_EQ(Canonicalize("src/x.cc", in), in);
}

// ---------------------------------------------------------------------------
// SARIF output.

TEST(Sarif, ShapeIsWellFormedAndCarriesTheFinding) {
  Finding f;
  f.file = "src/a.cc";
  f.line = 7;
  f.rule = "dpaudit-layering";
  f.message = "a \"quoted\" message";
  std::ostringstream out;
  WriteSarif({f}, out);
  const std::string sarif = out.str();
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"dpaudit_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"dpaudit-layering\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":7"), std::string::npos);
  EXPECT_NE(sarif.find("a \\\"quoted\\\" message"), std::string::npos);
  // Every registered rule is described in the tool metadata.
  for (const GraphRule& rule : AllGraphRules()) {
    EXPECT_NE(sarif.find("\"id\":\"" + rule.name + "\""), std::string::npos)
        << rule.name;
  }
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
            std::count(sarif.begin(), sarif.end(), '}'));
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '['),
            std::count(sarif.begin(), sarif.end(), ']'));
}

// ---------------------------------------------------------------------------
// layers.txt parsing.

TEST(LayerConfigParse, AcceptsTheDirectiveGrammar) {
  LayerConfig config;
  std::string error;
  ASSERT_TRUE(ParseLayerConfig(
      "# comment\n"
      "layer util src/util\n"
      "layer core src/core\n"
      "allow core util\n"
      "restrict src/util/secret.h src/core/bridge.\n",
      "layers.txt", &config, &error))
      << error;
  EXPECT_EQ(config.layers.size(), 2u);
  ASSERT_NE(config.LayerOf("src/util/x.h"), nullptr);
  EXPECT_EQ(config.LayerOf("src/util/x.h")->name, "util");
  EXPECT_EQ(config.LayerOf("bench/b.cc"), nullptr);
  EXPECT_EQ(config.restrictions.size(), 1u);
}

TEST(LayerConfigParse, RejectsUnknownLayersAndDirectives) {
  LayerConfig config;
  std::string error;
  EXPECT_FALSE(ParseLayerConfig("allow ghost util\n", "layers.txt", &config,
                                &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ParseLayerConfig("frobnicate a b\n", "layers.txt", &config,
                                &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// The pass-1 lexer.

TEST(Lexer, ExtractsIncludesDeclsAndRefs) {
  const FileModel model = AnalyzeFile(
      "src/core/thing.h",
      "#pragma once\n"
      "#include <vector>\n"
      "#include \"util/base.h\"\n"
      "#define THING_MAX 4\n"
      "struct Widget { void Grow(); };\n"
      "enum class Mode { kFast };\n"
      "using Alias = Widget;\n"
      "int FreeFn(const Widget& w);\n");
  ASSERT_EQ(model.includes.size(), 2u);
  EXPECT_TRUE(model.includes[0].angled);
  EXPECT_EQ(model.includes[1].spelled, "util/base.h");
  EXPECT_TRUE(model.is_header);

  std::set<std::string> decl_names;
  for (const SymbolDecl& d : model.decls) decl_names.insert(d.name);
  EXPECT_EQ(decl_names.count("THING_MAX"), 1u);
  EXPECT_EQ(decl_names.count("Widget"), 1u);
  EXPECT_EQ(decl_names.count("Mode"), 1u);
  EXPECT_EQ(decl_names.count("Alias"), 1u);
  EXPECT_EQ(decl_names.count("FreeFn"), 1u);
  EXPECT_TRUE(model.HasRef("Widget"));
}

TEST(Lexer, MemberAndQualifiedAccessesAreNotFreeRefs) {
  const FileModel model = AnalyzeFile(
      "src/a.cc",
      "void Run(Box* box) {\n"
      "  box->Open();\n"
      "  box.Close();\n"
      "  Registry::Lookup();\n"
      "}\n");
  ASSERT_NE(model.FindRef("Open"), nullptr);
  EXPECT_TRUE(model.FindRef("Open")->member_only);
  EXPECT_TRUE(model.FindRef("Close")->member_only);
  EXPECT_TRUE(model.FindRef("Lookup")->member_only);
  EXPECT_FALSE(model.FindRef("Box")->member_only);
  EXPECT_FALSE(model.FindRef("Registry")->member_only);
}

TEST(Lexer, ForwardDeclarationsSuppressButDoNotDeclare) {
  const FileModel model = AnalyzeFile("src/a.h",
                                      "#pragma once\n"
                                      "class TraceStore;\n"
                                      "TraceStore* Get();\n");
  bool found = false;
  for (const SymbolDecl& d : model.decls) {
    if (d.name == "TraceStore") {
      found = true;
      // kVariable entries join the file's own-name set but are skipped by
      // the cross-TU declarer index.
      EXPECT_EQ(d.kind, SymbolKind::kVariable);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lexer, IndentedMemberDeclarationsJoinTheOwnNameSet) {
  const FileModel model = AnalyzeFile("src/s.h",
                                      "#pragma once\n"
                                      "class RunningSummary {\n"
                                      " public:\n"
                                      "  void Add(double x);\n"
                                      "};\n");
  bool found = false;
  for (const SymbolDecl& d : model.decls) {
    if (d.name == "Add") {
      found = true;
      EXPECT_EQ(d.kind, SymbolKind::kVariable);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lexer, DetectsLiteralSigmaConstruction) {
  EXPECT_GT(AnalyzeFile("src/core/a.cc",
                        "#include \"dp/mechanism.h\"\n"
                        "GaussianMechanism Make() {\n"
                        "  return GaussianMechanism(1.5);\n"
                        "}\n")
                .gaussian_literal_line,
            0);
  EXPECT_EQ(AnalyzeFile("src/core/a.cc",
                        "#include \"dp/mechanism.h\"\n"
                        "GaussianMechanism Make(double sigma) {\n"
                        "  return GaussianMechanism(sigma);\n"
                        "}\n")
                .gaussian_literal_line,
            0);
}

TEST(Lexer, SuppressionsSurviveTheModel) {
  const FileModel model = AnalyzeFile(
      "src/a.cc",
      "#include \"b.h\"  // NOLINT(dpaudit-unused-include)\n"
      "// NOLINTNEXTLINE(dpaudit-layering, dpaudit-missing-include)\n"
      "#include \"c.h\"\n"
      "int x = 1;  // NOLINT\n");
  EXPECT_TRUE(IsSuppressedInModel(model, "dpaudit-unused-include", 1));
  EXPECT_FALSE(IsSuppressedInModel(model, "dpaudit-layering", 1));
  EXPECT_TRUE(IsSuppressedInModel(model, "dpaudit-layering", 3));
  EXPECT_TRUE(IsSuppressedInModel(model, "dpaudit-missing-include", 3));
  EXPECT_TRUE(IsSuppressedInModel(model, "dpaudit-anything", 4));
  EXPECT_FALSE(IsSuppressedInModel(model, "dpaudit-layering", 2));
}

TEST(Lexer, UnreachedModuleEscapeNeedsAReason) {
  const FileModel model = AnalyzeFile(
      "src/a.h",
      "// NOLINT(dpaudit-unreached-module)\n"
      "// NOLINT(dpaudit-unreached-module): loader for downstream users\n"
      "// NOLINT\n");
  ASSERT_EQ(model.suppressions.size(), 3u);
  EXPECT_FALSE(model.suppressions[0].reason);
  EXPECT_TRUE(model.suppressions[1].reason);
  EXPECT_FALSE(IsSuppressedInModel(model, "dpaudit-unreached-module", 1));
  EXPECT_TRUE(IsSuppressedInModel(model, "dpaudit-unreached-module", 2));
  // A bare NOLINT names no rule, so it cannot carry a reason for this one.
  EXPECT_FALSE(IsSuppressedInModel(model, "dpaudit-unreached-module", 3));
  // Other rules keep the plain escape.
  EXPECT_TRUE(IsSuppressedInModel(model, "dpaudit-layering", 3));
}

TEST(Lexer, FingerprintTracksContent) {
  EXPECT_EQ(FingerprintContents("abc"), FingerprintContents("abc"));
  EXPECT_NE(FingerprintContents("abc"), FingerprintContents("abd"));
}

}  // namespace
}  // namespace lint
}  // namespace dpaudit
