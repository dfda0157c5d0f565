// dpaudit_lint — tree-wide static analysis for dpaudit's repo invariants.
// Two passes: per-file lexical rules over a token model (parallel), then
// cross-TU graph rules over the include graph
// and symbol xref (layering, cycles, include hygiene, DP mechanism flow).
// See tools/lint/lint.h, tools/lint/model.h, and DESIGN.md §14.
//
// Usage:
//   dpaudit_lint [--root=DIR] [--format=text|json|sarif] [--rule=NAME ...]
//                [--layers=FILE] [--no-graph] [--fix] [--stats]
//                [--list-rules] [paths...]
//
// Paths (files or directories) are resolved against --root; with none given
// the default trees src/ bench/ tools/ tests/ examples/ are scanned. Exit
// status: 0 clean, 1 findings, 2 usage or I/O error.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "tools/lint/driver.h"
#include "tools/lint/lint.h"
#include "tools/lint/model.h"

namespace {

namespace fs = std::filesystem;

int Usage(std::ostream& out, int code) {
  out << "usage: dpaudit_lint [--root=DIR] [--format=text|json|sarif]\n"
         "                    [--rule=NAME ...] [--layers=FILE] [--no-graph]\n"
         "                    [--fix] [--stats] [--list-rules] [paths...]\n"
         "\n"
         "Lints C++ sources against dpaudit's repo invariants: per-file\n"
         "lexical rules plus cross-TU graph rules (include-graph layering,\n"
         "cycles, IWYU-lite hygiene, DP mechanism flow). With no paths,\n"
         "scans src/ bench/ tools/ tests/ examples/ under --root (default:\n"
         "current directory). --fix rewrites include guards and include\n"
         "order in place (idempotent). Suppress one line with\n"
         "// NOLINT(dpaudit-<rule>); see --list-rules for rule names.\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  dpaudit::lint::TreeLintOptions options;
  std::string format = "text";
  std::vector<std::string> paths;
  bool list_rules = false;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Accepts both --flag=value and --flag value.
    const auto value = [&](const std::string& flag) -> std::string {
      if (arg.size() > flag.size() + 1 && arg[flag.size()] == '=') {
        return arg.substr(flag.size() + 1);
      }
      if (arg == flag && i + 1 < argc) return argv[++i];
      std::cerr << "dpaudit_lint: " << flag << " needs a value\n";
      std::exit(2);
    };
    if (arg == "--help" || arg == "-h") {
      return Usage(std::cout, 0);
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--fix") {
      options.fix = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--no-graph") {
      options.graph_rules = false;
    } else if (arg.rfind("--root", 0) == 0) {
      options.root = value("--root");
    } else if (arg.rfind("--format", 0) == 0) {
      format = value("--format");
    } else if (arg.rfind("--rule", 0) == 0) {
      options.rules.push_back(value("--rule"));
    } else if (arg.rfind("--layers", 0) == 0) {
      options.layers_path = value("--layers");
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "dpaudit_lint: unknown flag " << arg << "\n";
      return Usage(std::cerr, 2);
    } else {
      paths.push_back(arg);
    }
  }
  if (format != "text" && format != "json" && format != "sarif") {
    std::cerr << "dpaudit_lint: --format must be text, json, or sarif\n";
    return 2;
  }
  if (list_rules) {
    for (const dpaudit::lint::Rule& rule : dpaudit::lint::AllRules()) {
      std::cout << rule.name << ": " << rule.summary << "\n";
    }
    for (const dpaudit::lint::GraphRule& rule :
         dpaudit::lint::AllGraphRules()) {
      std::cout << rule.name << " (graph): " << rule.summary << "\n";
    }
    return 0;
  }
  for (const std::string& rule : options.rules) {
    if (!dpaudit::lint::IsKnownRule(rule)) {
      std::cerr << "dpaudit_lint: unknown rule " << rule
                << " (see --list-rules)\n";
      return 2;
    }
  }

  if (paths.empty()) {
    for (const char* tree : {"src", "bench", "tools", "tests", "examples"}) {
      if (fs::is_directory(fs::path(options.root) / tree)) {
        paths.push_back(tree);
      }
    }
    if (paths.empty()) {
      std::cerr << "dpaudit_lint: no default trees under " << options.root
                << "\n";
      return 2;
    }
  }

  const dpaudit::lint::TreeLintResult result =
      dpaudit::lint::LintTree(paths, options);
  if (!result.errors.empty()) {
    for (const std::string& error : result.errors) {
      std::cerr << "dpaudit_lint: " << error << "\n";
    }
    return 2;
  }
  if (stats) {
    std::cerr << "dpaudit_lint: " << result.files_scanned << " file(s)";
    if (options.fix) std::cerr << ", " << result.files_fixed << " fixed";
    std::cerr << "\n";
  }

  if (format == "json") {
    dpaudit::lint::WriteJson(result.findings, result.files_scanned,
                             std::cout);
  } else if (format == "sarif") {
    dpaudit::lint::WriteSarif(result.findings, std::cout);
  } else {
    dpaudit::lint::WriteText(result.findings, std::cout);
    if (!result.findings.empty()) {
      std::cout << result.findings.size() << " finding(s) in "
                << result.files_scanned << " file(s)\n";
    }
  }
  return result.findings.empty() ? 0 : 1;
}
