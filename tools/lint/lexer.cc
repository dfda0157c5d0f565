#include "tools/lint/lexer.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dpaudit {
namespace lint {
namespace {

// Keywords, builtin types, and ubiquitous std vocabulary that never
// identify a repo symbol. Keeping them out of the ref set shrinks the model
// and removes xref noise.
const std::set<std::string>& StopWords() {
  static const std::set<std::string> kStop = {
      "alignas", "alignof", "and", "auto", "bool", "break", "case", "catch",
      "char", "class", "const", "const_cast", "consteval", "constexpr",
      "constinit", "continue", "decltype", "default", "delete", "do",
      "double", "dynamic_cast", "else", "enum", "explicit", "extern",
      "false", "final", "float", "for", "friend", "goto", "if", "inline",
      "int", "long", "mutable", "namespace", "new", "noexcept", "not",
      "nullptr", "operator", "or", "override", "private", "protected",
      "public", "register", "reinterpret_cast", "return", "short", "signed",
      "sizeof", "static", "static_assert", "static_cast", "struct",
      "switch", "template", "this", "throw", "true", "try", "typedef",
      "typeid", "typename", "union", "unsigned", "using", "virtual", "void",
      "volatile", "wchar_t", "while",
      // builtin-adjacent vocabulary
      "std", "size_t", "ssize_t", "ptrdiff_t", "intptr_t", "uintptr_t",
      "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
      "uint32_t", "uint64_t", "char8_t", "char16_t", "char32_t",
  };
  return kStop;
}

bool IsKeywordish(const std::string& token) {
  return token.size() < 2 || StopWords().count(token) != 0;
}

/// The identifier token ending at position `end` (exclusive) of `line`, or
/// empty when the preceding characters are not an identifier.
std::string IdentEndingAt(const std::string& line, size_t end) {
  size_t begin = end;
  while (begin > 0 && IsIdentChar(line[begin - 1])) --begin;
  if (begin == end) return std::string();
  if (std::isdigit(static_cast<unsigned char>(line[begin])) != 0) {
    return std::string();
  }
  return line.substr(begin, end - begin);
}

/// The first identifier token starting at or after `pos`; advances `pos`
/// past it. Returns empty at end of line.
std::string NextIdent(const std::string& line, size_t* pos) {
  size_t p = *pos;
  while (p < line.size()) {
    const char c = line[p];
    const bool start = (std::isalpha(static_cast<unsigned char>(c)) != 0 ||
                        c == '_') &&
                       (p == 0 || !IsIdentChar(line[p - 1]));
    if (start) break;
    ++p;
  }
  if (p >= line.size()) {
    *pos = line.size();
    return std::string();
  }
  size_t end = p;
  while (end < line.size() && IsIdentChar(line[end])) ++end;
  *pos = end;
  return line.substr(p, end - p);
}

void AddDecl(std::vector<SymbolDecl>* decls, std::set<std::string>* seen,
             const std::string& name, SymbolKind kind, int line) {
  if (name.empty() || IsKeywordish(name)) return;
  if (!seen->insert(name + '\0' + static_cast<char>('0' + int(kind)))
           .second) {
    return;
  }
  SymbolDecl d;
  d.name = name;
  d.kind = kind;
  d.line = line;
  decls->push_back(std::move(d));
}

/// True when an unmatched '<' precedes `pos` on the line — the keyword sits
/// inside a template parameter list ("template <class T>").
bool InsideTemplateBrackets(const std::string& line, size_t pos) {
  int depth = 0;
  for (size_t i = 0; i < pos && i < line.size(); ++i) {
    if (line[i] == '<') ++depth;
    if (line[i] == '>') --depth;
  }
  return depth > 0;
}

void ExtractTypeDecls(const std::string& line, int lineno,
                      std::vector<SymbolDecl>* decls,
                      std::set<std::string>* seen) {
  for (const char* kw : {"class", "struct", "enum", "union"}) {
    size_t pos = 0;
    const std::string keyword(kw);
    while ((pos = line.find(keyword, pos)) != std::string::npos) {
      const size_t end = pos + keyword.size();
      const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
      const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
      if (!left_ok || !right_ok || InsideTemplateBrackets(line, pos)) {
        pos = end;
        continue;
      }
      size_t p = end;
      std::string name = NextIdent(line, &p);
      if (keyword == "enum" && (name == "class" || name == "struct")) {
        name = NextIdent(line, &p);
      }
      // Skip attribute-ish / macro-ish all-caps tokens between keyword and
      // name is overkill here; accept the first identifier.
      if (!name.empty()) {
        size_t q = p;
        while (q < line.size() && line[q] == ' ') ++q;
        const char next = q < line.size() ? line[q] : '\0';
        // `class X;` is a forward declaration, not a definition; the
        // declaring header is whoever defines X. Still record it as a
        // suppression-only name (kVariable is never indexed as a declarer)
        // so a file that deliberately forward-declares is not told to add
        // the #include it avoided.
        if (next != ';') {
          AddDecl(decls, seen, name, SymbolKind::kType, lineno);
        } else {
          AddDecl(decls, seen, name, SymbolKind::kVariable, lineno);
        }
      }
      pos = end;
    }
  }
  // using X = ...;
  size_t pos = 0;
  while ((pos = line.find("using", pos)) != std::string::npos) {
    const size_t end = pos + 5;
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) {
      size_t p = end;
      const std::string name = NextIdent(line, &p);
      size_t q = p;
      while (q < line.size() && line[q] == ' ') ++q;
      if (!name.empty() && name != "namespace" && q < line.size() &&
          line[q] == '=') {
        AddDecl(decls, seen, name, SymbolKind::kType, lineno);
      }
    }
    pos = end;
  }
  // typedef ... Name;
  if (StartsWith(line, "typedef")) {
    const size_t semi = line.find(';');
    if (semi != std::string::npos) {
      AddDecl(decls, seen, IdentEndingAt(line, semi), SymbolKind::kType,
              lineno);
    }
  }
}

/// Declarations that start at column 0: free functions and namespace-scope
/// variables. Google style keeps namespace contents unindented, so
/// column 0 is exactly "namespace scope" in this tree; class members are
/// indented and intentionally excluded (they are reachable through the
/// class name in the xref).
void ExtractColumnZeroDecls(const std::string& line, int lineno,
                            std::vector<SymbolDecl>* decls,
                            std::set<std::string>* seen) {
  if (line.empty() || !IsIdentChar(line[0]) ||
      std::isdigit(static_cast<unsigned char>(line[0])) != 0) {
    return;
  }
  size_t p = 0;
  const std::string first = NextIdent(line, &p);
  static const std::set<std::string> kSkipLead = {
      "if", "else", "for", "while", "do", "switch", "case", "return",
      "namespace", "using", "typedef", "template", "public", "private",
      "protected", "friend", "operator", "static_assert", "else",
  };
  if (kSkipLead.count(first) != 0) return;
  const size_t paren = line.find('(');
  if (paren != std::string::npos) {
    const std::string name = IdentEndingAt(line, paren);
    if (name.empty() || IsKeywordish(name)) return;
    // `Class::Method(` is an out-of-line definition; the declaration lives
    // with the class.
    const size_t name_begin = paren - name.size();
    if (name_begin >= 1 && line[name_begin - 1] == ':') return;
    // A lone `Name(` at column 0 (macro invocation) has no return type
    // before it; require the name not be the first token unless the line
    // also looks like a constructor — skipping those costs little.
    if (name == first) return;
    AddDecl(decls, seen, name, SymbolKind::kFunction, lineno);
    return;
  }
  // Variable / constant: last identifier before '=' (not '==') or ';'.
  for (size_t q = 0; q < line.size(); ++q) {
    if (line[q] == '=' &&
        (q + 1 >= line.size() || line[q + 1] != '=') &&
        (q == 0 || std::string("=!<>+-*/%&|^").find(line[q - 1]) ==
                       std::string::npos)) {
      size_t end = q;
      while (end > 0 && line[end - 1] == ' ') --end;
      const std::string name = IdentEndingAt(line, end);
      if (!name.empty() && !IsKeywordish(name) && name != first) {
        AddDecl(decls, seen, name, SymbolKind::kVariable, lineno);
      }
      return;
    }
  }
}

/// Indented method-style declarations: `  void Add(double x);` inside a
/// class body. Recorded as kVariable — visible to the file's own-name set
/// (so a member named `Add` never reads as reliance on some header's free
/// `Add`) but never indexed as a cross-TU declarer. Over-capturing here only
/// quiets dpaudit-missing-include, so the heuristic errs permissive.
void ExtractIndentedMemberDecls(const std::string& line, int lineno,
                                std::vector<SymbolDecl>* decls,
                                std::set<std::string>* seen) {
  if (line.empty() || (line[0] != ' ' && line[0] != '\t')) return;
  const size_t paren = line.find('(');
  if (paren == std::string::npos) return;
  const std::string name = IdentEndingAt(line, paren);
  if (name.empty() || IsKeywordish(name)) return;
  size_t p = 0;
  const std::string first = NextIdent(line, &p);
  // `  Foo(bar);` is a call statement, not a declaration.
  if (name == first) return;
  static const std::set<std::string> kSkipLead = {
      "if", "else", "for", "while", "do", "switch", "case", "return",
      "new", "delete", "throw", "goto", "using", "namespace", "template",
  };
  if (kSkipLead.count(first) != 0) return;
  // `  double x = Foo(1);` initializes from a call; Foo stays a free ref.
  if (line.find('=') < paren) return;
  const size_t name_begin = paren - name.size();
  if (name_begin >= 1 &&
      (line[name_begin - 1] == ':' || line[name_begin - 1] == '.' ||
       line[name_begin - 1] == '>')) {
    return;
  }
  AddDecl(decls, seen, name, SymbolKind::kVariable, lineno);
}

void ExtractRefs(const std::vector<std::string>& code_lines,
                 std::vector<SymbolRef>* refs) {
  struct RefInfo {
    int first_line = 0;
    bool has_free = false;
  };
  std::map<std::string, RefInfo> seen;
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    size_t pos = 0;
    while (pos < line.size()) {
      const size_t start = pos;
      const std::string token = NextIdent(line, &pos);
      if (token.empty()) break;
      if (IsKeywordish(token)) continue;
      const size_t begin = pos - token.size();
      (void)start;
      const bool member =
          (begin >= 1 && line[begin - 1] == '.' &&
           (begin < 2 ||
            std::isdigit(static_cast<unsigned char>(line[begin - 2])) ==
                0)) ||
          (begin >= 2 && line[begin - 2] == '-' && line[begin - 1] == '>');
      // `Class::Method` definitions and `Enum::kValue` accesses reach the
      // name through a qualifier, so the token alone does not tie this file
      // to the header that happens to declare an unrelated symbol of the
      // same spelling.
      const bool qualified =
          begin >= 2 && line[begin - 1] == ':' && line[begin - 2] == ':';
      RefInfo& info = seen[token];
      if (info.first_line == 0) info.first_line = static_cast<int>(i + 1);
      if (!member && !qualified) info.has_free = true;
    }
  }
  refs->reserve(seen.size());
  for (const auto& kv : seen) {
    SymbolRef r;
    r.name = kv.first;
    r.line = kv.second.first_line;
    r.member_only = !kv.second.has_free;
    refs->push_back(std::move(r));
  }
}

void ExtractSuppressions(const std::vector<std::string>& raw_lines,
                         std::vector<SuppressDirective>* out) {
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& raw = raw_lines[i];
    size_t pos = 0;
    while ((pos = raw.find("NOLINT", pos)) != std::string::npos) {
      size_t after = pos + 6;
      bool next_line = false;
      if (raw.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
        next_line = true;
        after = pos + 14;
      } else if (after < raw.size() && raw[after] == 'N') {
        // Prefix of NOLINTNEXTLINE that failed to match above (defensive).
        ++pos;
        continue;
      }
      SuppressDirective d;
      d.line = static_cast<int>(i + 1);
      d.next_line = next_line;
      if (after < raw.size() && raw[after] == '(') {
        const size_t close = raw.find(')', after);
        const std::string list = raw.substr(
            after + 1, close == std::string::npos ? std::string::npos
                                                  : close - after - 1);
        // Rule names contain '-', which identifier scanning splits on, so
        // split the list on commas instead, trimming spaces.
        size_t begin = 0;
        while (begin <= list.size()) {
          size_t comma = list.find(',', begin);
          if (comma == std::string::npos) comma = list.size();
          std::string item = list.substr(begin, comma - begin);
          while (!item.empty() && item.front() == ' ') item.erase(0, 1);
          while (!item.empty() && item.back() == ' ') item.pop_back();
          if (!item.empty()) d.rules.push_back(item);
          begin = comma + 1;
        }
        d.bare = d.rules.empty();
        if (close != std::string::npos) {
          const size_t text = raw.find_first_not_of(" \t:-", close + 1);
          d.reason = text != std::string::npos;
        }
      } else {
        d.bare = true;
      }
      out->push_back(std::move(d));
      pos = after;
    }
  }
}

}  // namespace

bool FileModel::HasRef(const std::string& name) const {
  return FindRef(name) != nullptr;
}

const SymbolRef* FileModel::FindRef(const std::string& name) const {
  const auto it = std::lower_bound(
      refs.begin(), refs.end(), name,
      [](const SymbolRef& r, const std::string& n) { return r.name < n; });
  if (it == refs.end() || it->name != name) return nullptr;
  return &*it;
}

uint64_t FingerprintContents(const std::string& contents) {
  uint64_t h = 14695981039346656037ULL;
  for (const char c : contents) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

FileModel AnalyzeFile(const std::string& rel, const std::string& contents) {
  FileModel model;
  model.rel = rel;
  model.fingerprint = FingerprintContents(contents);
  model.is_header =
      EndsWith(rel, ".h") || EndsWith(rel, ".hpp") || EndsWith(rel, ".hh");

  const SourceFile source = PrepareSource(rel, contents);

  for (size_t i = 0; i < source.raw_lines.size(); ++i) {
    IncludeDirective inc;
    if (ParseIncludeLine(source.raw_lines[i], &inc.spelled, &inc.angled)) {
      inc.line = static_cast<int>(i + 1);
      model.includes.push_back(std::move(inc));
    }
  }

  std::set<std::string> seen_decls;
  for (size_t i = 0; i < source.code_lines.size(); ++i) {
    const std::string& line = source.code_lines[i];
    const int lineno = static_cast<int>(i + 1);
    // #define NAME
    size_t hash = 0;
    while (hash < line.size() && (line[hash] == ' ' || line[hash] == '\t')) {
      ++hash;
    }
    if (hash < line.size() && line[hash] == '#') {
      size_t p = hash + 1;
      while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
      if (line.compare(p, 6, "define") == 0) {
        size_t q = p + 6;
        AddDecl(&model.decls, &seen_decls, NextIdent(line, &q),
                SymbolKind::kMacro, lineno);
      }
      continue;  // other directives declare nothing
    }
    ExtractTypeDecls(line, lineno, &model.decls, &seen_decls);
    ExtractColumnZeroDecls(line, lineno, &model.decls, &seen_decls);
    ExtractIndentedMemberDecls(line, lineno, &model.decls, &seen_decls);
  }

  // Ad-hoc sigma: a GaussianMechanism constructed from a numeric literal.
  for (size_t i = 0; i < source.code_lines.size() &&
                     model.gaussian_literal_line == 0;
       ++i) {
    const std::string& line = source.code_lines[i];
    size_t pos = 0;
    while ((pos = line.find("GaussianMechanism", pos)) != std::string::npos) {
      const size_t end = pos + 17;
      const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
      if (!left_ok || (end < line.size() && IsIdentChar(line[end]))) {
        pos = end;
        continue;
      }
      size_t q = end;
      while (q < line.size() && line[q] == ' ') ++q;
      // Optional variable name: `GaussianMechanism mech(...)`.
      while (q < line.size() && IsIdentChar(line[q])) ++q;
      while (q < line.size() && line[q] == ' ') ++q;
      if (q < line.size() && (line[q] == '(' || line[q] == '{')) {
        ++q;
        while (q < line.size() && line[q] == ' ') ++q;
        if (q < line.size() &&
            (std::isdigit(static_cast<unsigned char>(line[q])) != 0 ||
             (line[q] == '.' && q + 1 < line.size() &&
              std::isdigit(static_cast<unsigned char>(line[q + 1])) != 0))) {
          model.gaussian_literal_line = static_cast<int>(i + 1);
          break;
        }
      }
      pos = end;
    }
  }

  ExtractRefs(source.code_lines, &model.refs);
  ExtractSuppressions(source.raw_lines, &model.suppressions);
  LintFile(source, {}, &model.findings);
  return model;
}

bool IsSuppressedInModel(const FileModel& model, const std::string& rule,
                         int line) {
  for (const SuppressDirective& d : model.suppressions) {
    const bool covers_line =
        d.next_line ? (d.line == line - 1) : (d.line == line);
    if (!covers_line) continue;
    if (rule == "dpaudit-unreached-module" && !d.reason) continue;
    if (d.bare) return true;
    for (const std::string& r : d.rules) {
      if (r == rule) return true;
    }
  }
  return false;
}

}  // namespace lint
}  // namespace dpaudit
