// The two-pass tree linter. Pass 1 lexes every collected file into a
// FileModel, parallelized over util/thread_pool's SharedThreadPool. Pass 2 builds the TreeModel and runs the graph rules
// (tools/lint/model.h). With `fix` set, the mechanical rewrites
// (tools/lint/fix.h) are applied before analysis, so the emitted findings
// describe the fixed tree.

#ifndef DPAUDIT_TOOLS_LINT_DRIVER_H_
#define DPAUDIT_TOOLS_LINT_DRIVER_H_

#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace dpaudit {
namespace lint {

struct TreeLintOptions {
  std::string root = ".";
  std::vector<std::string> rules;  // empty = all rules
  std::string layers_path;         // empty = <root>/tools/lint/layers.txt
  bool graph_rules = true;         // run pass 2
  bool fix = false;                // apply mechanical fixes in place
  size_t threads = 0;              // 0 = DefaultThreadCount()
};

struct TreeLintResult {
  std::vector<Finding> findings;
  size_t files_scanned = 0;
  size_t files_fixed = 0;
  std::vector<std::string> errors;  // unreadable files, bad layer config
};

/// Lints every lintable file under `paths` (resolved against
/// options.root). Graph rules see exactly the collected set, so running on
/// a subtree checks that subtree's edges only; the lint_tree ctest and CI
/// run the full default trees.
TreeLintResult LintTree(const std::vector<std::string>& paths,
                        const TreeLintOptions& options);

}  // namespace lint
}  // namespace dpaudit

#endif  // DPAUDIT_TOOLS_LINT_DRIVER_H_
