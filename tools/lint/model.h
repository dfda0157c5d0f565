// Pass 2 of the tree-wide analysis engine: the TreeModel stitches every
// FileModel into an include graph plus a symbol cross-reference, and the
// graph rules run over it. Cross-TU invariants live here — architectural
// layering (tools/lint/layers.txt), include cycles, IWYU-lite include
// hygiene, modules no binary reaches, and the DP mechanism-flow rule that
// ties every mechanism call site back to the clipping/sensitivity helpers.
// See DESIGN.md §14.

#ifndef DPAUDIT_TOOLS_LINT_MODEL_H_
#define DPAUDIT_TOOLS_LINT_MODEL_H_

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "tools/lint/lexer.h"
#include "tools/lint/lint.h"

namespace dpaudit {
namespace lint {

/// The allowed-edge matrix for dpaudit-layering, parsed from
/// tools/lint/layers.txt. Three directive kinds:
///   layer <name> <path-prefix>...   assigns files to a named layer
///   allow <from> <to>... | *        permits include edges between layers
///   restrict <target-prefix> <includer-prefix>...
///                                   locks specific headers to named callers
/// A file matching no layer is unconstrained; an edge within one layer is
/// always allowed.
struct LayerConfig {
  struct Layer {
    std::string name;
    std::vector<std::string> prefixes;  // match "<prefix>/" or exact
  };
  struct Restriction {
    std::string target_prefix;
    std::vector<std::string> allowed_prefixes;
    int line = 0;  // in the config file, for diagnostics
  };
  std::vector<Layer> layers;
  std::map<std::string, std::vector<std::string>> allowed;  // from -> to*
  std::vector<Restriction> restrictions;
  std::string origin;  // config path, quoted in messages

  /// Longest-prefix layer match, or nullptr.
  const Layer* LayerOf(const std::string& rel) const;
};

/// Parses a layers.txt. Returns false (and sets `error`) on malformed
/// directives or references to undeclared layers.
bool ParseLayerConfig(const std::string& contents, const std::string& origin,
                      LayerConfig* config, std::string* error);
bool LoadLayerConfig(const std::string& path, LayerConfig* config,
                     std::string* error);

/// The whole tree, resolved: files sorted by rel path, include edges
/// resolved against the model, and the declared-symbol index.
struct TreeModel {
  struct Edge {
    size_t target = 0;    // index into files
    int line = 0;         // include line in the source file
    std::string spelled;  // as written
  };
  std::vector<FileModel> files;          // sorted by rel
  std::vector<std::vector<Edge>> edges;  // parallel to files
  LayerConfig layers;

  const FileModel* Find(const std::string& rel) const;
  size_t IndexOf(const std::string& rel) const;  // files.size() if absent

  /// Resolves an include spelling against the model ("util/x.h" ->
  /// "src/util/x.h" or the spelling itself). files.size() when the target
  /// is not part of the model (system or third-party header).
  size_t ResolveInclude(const std::string& spelled) const;
};

/// Builds the tree model (sorts files, resolves edges). `layers` may be an
/// empty config; dpaudit-layering then has nothing to check.
TreeModel BuildTreeModel(std::vector<FileModel> files, LayerConfig layers);

/// Metadata plus implementation for one cross-TU rule.
struct GraphRule {
  std::string name;     // "dpaudit-<slug>"
  std::string summary;  // one line, shown by --list-rules
  void (*check)(const TreeModel& tree, std::vector<Finding>* out);
};

/// Every registered graph rule, in stable (alphabetical) order.
const std::vector<GraphRule>& AllGraphRules();

/// Runs the graph rules (all of them when `rules` is empty) and appends
/// NOLINT-filtered findings. Findings are suppressed through the FileModel
/// suppression records, so `// NOLINT(dpaudit-layering)` on an #include
/// line works exactly like the per-file rules.
void RunGraphRules(const TreeModel& tree, const std::vector<std::string>& rules,
                   std::vector<Finding>* out);

/// True when `name` names a registered per-file or graph rule.
bool IsKnownRule(const std::string& name);

}  // namespace lint
}  // namespace dpaudit

#endif  // DPAUDIT_TOOLS_LINT_MODEL_H_
