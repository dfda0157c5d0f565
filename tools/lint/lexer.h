// Pass 1 of the tree-wide analysis engine: lex one source file into a
// FileModel — its include directives, declared top-level symbols, referenced
// identifiers, NOLINT suppressions, and the findings of every per-file
// (lexical) rule. A FileModel is a pure value: it can be computed in
// parallel and fed to the tree model (tools/lint/model.h) without
// re-reading the file.
//
// The lexer is heuristic by design (token-level, no compiler): it reuses the
// comment/string-blanking scanner from lint.cc, so rules never fire inside
// comments or literals, but it does not expand macros or instantiate
// templates. The graph rules built on top are tuned to err quiet, and every
// rule honors NOLINT(dpaudit-<rule>) escapes.

#ifndef DPAUDIT_TOOLS_LINT_LEXER_H_
#define DPAUDIT_TOOLS_LINT_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace dpaudit {
namespace lint {

/// One #include directive.
struct IncludeDirective {
  int line = 0;         // 1-based
  std::string spelled;  // path as written, without quotes/brackets
  bool angled = false;  // <...> rather than "..."
};

/// Kind of a declared top-level symbol; drives which xref queries see it.
enum class SymbolKind : uint8_t {
  kType = 0,      // class/struct/enum/union, using alias, typedef
  kFunction = 1,  // free function at namespace scope
  kVariable = 2,  // namespace-scope constant/variable
  kMacro = 3,     // #define
};

struct SymbolDecl {
  std::string name;  // unqualified identifier
  SymbolKind kind = SymbolKind::kType;
  int line = 0;
};

/// A referenced identifier and the first line it occurs on. `member_only`
/// marks tokens that only ever appear as member accesses (`x.name`,
/// `p->name`) — the missing-include rule skips those.
struct SymbolRef {
  std::string name;
  int line = 0;
  bool member_only = false;
};

/// A NOLINT / NOLINTNEXTLINE directive, extracted so graph rules can honor
/// suppressions without the raw lines (which the model does not keep).
struct SuppressDirective {
  int line = 0;           // 1-based line the directive sits on
  bool next_line = false; // NOLINTNEXTLINE
  bool bare = false;      // no rule list: suppresses every rule
  bool reason = false;    // text follows the rule list (a stated reason)
  std::vector<std::string> rules;
};

/// Everything pass 2 needs to know about one file.
struct FileModel {
  std::string rel;           // repo-relative path, forward slashes
  uint64_t fingerprint = 0;  // content fingerprint (FNV-1a 64)
  bool is_header = false;
  std::vector<IncludeDirective> includes;
  std::vector<SymbolDecl> decls;
  std::vector<SymbolRef> refs;  // sorted by name, unique
  std::vector<SuppressDirective> suppressions;
  // First line constructing a GaussianMechanism with a literal sigma
  // (`GaussianMechanism m(1.5, ...)`), or 0. Computed at lex time because
  // the tree model keeps no source text; consumed by
  // dpaudit-mechanism-flow.
  int gaussian_literal_line = 0;
  // Findings of every per-file rule (already NOLINT-filtered). The driver
  // filters by the requested rule set at output time.
  std::vector<Finding> findings;

  bool HasRef(const std::string& name) const;
  const SymbolRef* FindRef(const std::string& name) const;
};

/// FNV-1a 64 over the file contents.
uint64_t FingerprintContents(const std::string& contents);

/// Lexes `contents` and runs all per-file rules. The returned model is
/// self-contained: the caller can drop the contents afterwards.
FileModel AnalyzeFile(const std::string& rel, const std::string& contents);

/// True when `model`'s suppressions cover a finding of `rule` at `line`.
/// dpaudit-unreached-module yields only to a directive that names it and
/// states a reason after the rule list
/// (`// NOLINT(dpaudit-unreached-module): kept because ...`).
bool IsSuppressedInModel(const FileModel& model, const std::string& rule,
                         int line);

}  // namespace lint
}  // namespace dpaudit

#endif  // DPAUDIT_TOOLS_LINT_LEXER_H_
