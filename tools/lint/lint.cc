#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace dpaudit {
namespace lint {

bool HasToken(const std::string& line, const std::string& token) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

namespace {

namespace fs = std::filesystem;

bool InTree(const std::string& rel, const char* tree) {
  return StartsWith(rel, std::string(tree) + "/");
}

bool IsHeader(const std::string& rel) {
  return EndsWith(rel, ".h") || EndsWith(rel, ".hpp") || EndsWith(rel, ".hh");
}

void Emit(const SourceFile& file, int line, const char* rule,
          std::string message, std::vector<Finding>* out) {
  Finding f;
  f.file = file.rel;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  out->push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// dpaudit-rng: single RNG discipline. Every random draw must flow from
// util/random's Rng (seeded once, split per task); ad-hoc engines make runs
// irreproducible and break the neighbor-world coupling the audit relies on.

constexpr const char* kRngTokens[] = {
    "rand",          "srand",          "rand_r",        "random_device",
    "mt19937",       "mt19937_64",     "minstd_rand",   "minstd_rand0",
    "default_random_engine", "knuth_b", "ranlux24",     "ranlux48",
};

void CheckRng(const SourceFile& file, std::vector<Finding>* out) {
  if (StartsWith(file.rel, "src/util/random.")) return;  // the one home
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    for (const char* token : kRngTokens) {
      if (HasToken(file.code_lines[i], token)) {
        Emit(file, static_cast<int>(i + 1), "dpaudit-rng",
             std::string("ad-hoc RNG '") + token +
                 "'; all randomness must flow from util/random's Rng "
                 "(seeded once, Split() per task) so runs stay reproducible",
             out);
        break;  // one finding per line is enough
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-stdout: experiment stdout is a byte-stable artifact (figures are
// diffed against golden output); library code must never write to it.

void CheckStdout(const SourceFile& file, std::vector<Finding>* out) {
  if (!InTree(file.rel, "src")) return;
  constexpr const char* kTokens[] = {"cout", "printf", "puts", "putchar",
                                     "stdout"};
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    for (const char* token : kTokens) {
      if (HasToken(file.code_lines[i], token)) {
        Emit(file, static_cast<int>(i + 1), "dpaudit-stdout",
             std::string("'") + token +
                 "' in library code; results go through io/ writers on "
                 "caller-supplied streams, diagnostics through DPAUDIT_LOG",
             out);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-cerr: diagnostics go through DPAUDIT_LOG (leveled, filterable,
// one record format); raw std::cerr bypasses all of that. util/logging is
// the stderr writer and the one exception.

void CheckCerr(const SourceFile& file, std::vector<Finding>* out) {
  if (!InTree(file.rel, "src")) return;
  if (StartsWith(file.rel, "src/util/logging.")) return;
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    for (const char* token : {"cerr", "clog"}) {
      if (HasToken(file.code_lines[i], token)) {
        Emit(file, static_cast<int>(i + 1), "dpaudit-cerr",
             std::string("direct 'std::") + token +
                 "'; route diagnostics through DPAUDIT_LOG(severity) or, "
                 "for raw multi-line reports, util/logging's RawLogStream()",
             out);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-unordered-float: iterating a std::unordered_{map,set} feeds
// elements in an unspecified order; accumulating floating-point values in
// that order makes results run-to-run nondeterministic (FP addition is not
// associative). Iterate a sorted view instead.

/// Heuristic: last identifier of a declaration-ish fragment, e.g.
/// "std::unordered_map<K, V> counts" -> "counts".
std::string LastIdentifier(const std::string& text) {
  size_t end = text.size();
  while (end > 0 && !IsIdentChar(text[end - 1])) --end;
  size_t begin = end;
  while (begin > 0 && IsIdentChar(text[begin - 1])) --begin;
  return text.substr(begin, end - begin);
}

void CheckUnorderedFloat(const SourceFile& file, std::vector<Finding>* out) {
  if (!InTree(file.rel, "src")) return;
  // Pass 1: names declared with an unordered container type.
  std::set<std::string> unordered_vars;
  for (const std::string& line : file.code_lines) {
    if (line.find("unordered_map") == std::string::npos &&
        line.find("unordered_set") == std::string::npos) {
      continue;
    }
    std::string decl = line;
    for (const char stop : {'=', '{', ';'}) {
      const size_t pos = decl.find(stop);
      if (pos != std::string::npos) decl.resize(pos);
    }
    const std::string name = LastIdentifier(decl);
    if (!name.empty() && name.find("unordered") == std::string::npos) {
      unordered_vars.insert(name);
    }
  }
  // Pass 2: range-for over an unordered container, accumulation inside.
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    if (!HasToken(line, "for")) continue;
    const size_t paren = line.find('(');
    if (paren == std::string::npos) continue;
    // The range-for colon: a ':' that is not part of "::".
    size_t colon = std::string::npos;
    for (size_t p = paren + 1; p < line.size(); ++p) {
      if (line[p] != ':') continue;
      if ((p + 1 < line.size() && line[p + 1] == ':') ||
          (p > 0 && line[p - 1] == ':')) {
        ++p;
        continue;
      }
      colon = p;
      break;
    }
    if (colon == std::string::npos) continue;
    const std::string range_expr = line.substr(colon + 1);
    bool unordered = range_expr.find("unordered_") != std::string::npos;
    if (!unordered) {
      for (const std::string& name : unordered_vars) {
        if (HasToken(range_expr, name)) {
          unordered = true;
          break;
        }
      }
    }
    if (!unordered) continue;
    // Loop body extent: brace-balanced from the for line; if the loop is
    // braceless, just the next line.
    int depth = 0;
    bool saw_brace = false;
    size_t last = std::min(i + 1, file.code_lines.size() - 1);
    for (size_t j = i; j < file.code_lines.size(); ++j) {
      for (const char c : file.code_lines[j]) {
        if (c == '{') {
          ++depth;
          saw_brace = true;
        } else if (c == '}') {
          --depth;
        }
      }
      if (saw_brace && depth <= 0) {
        last = j;
        break;
      }
      if (!saw_brace && j > i) {
        last = j;
        break;
      }
    }
    for (size_t j = i; j <= last && j < file.code_lines.size(); ++j) {
      const std::string& body = file.code_lines[j];
      if (body.find("+=") != std::string::npos ||
          body.find("-=") != std::string::npos ||
          HasToken(body, "accumulate")) {
        Emit(file, static_cast<int>(i + 1), "dpaudit-unordered-float",
             "accumulation over unordered container iteration; the order is "
             "unspecified and floating-point addition is not associative, so "
             "results become nondeterministic — iterate a sorted view",
             out);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-omp: all parallelism goes through util/thread_pool so thread
// counts, nesting budgets, and telemetry span adoption stay centralized.

void CheckOmp(const SourceFile& file, std::vector<Finding>* out) {
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    if (line.find("#pragma") != std::string::npos && HasToken(line, "omp")) {
      Emit(file, static_cast<int>(i + 1), "dpaudit-omp",
           "OpenMP pragma; parallelism goes through util/thread_pool "
           "(deterministic fan-out, nested budgets, telemetry adoption)",
           out);
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-raw-getenv: every process knob flows through the RuntimeOptions
// table (core/runtime_options.h) so precedence (flag > env > default),
// validation, and --help stay in one place. A raw getenv is an undocumented
// knob the table and docs/OPERATIONS.md cannot see.

/// Flags `getenv`/`std::getenv`/`secure_getenv` everywhere except the
/// RuntimeOptions implementation itself. The util/env.h accessors are the
/// one sanctioned low-level read path and carry per-line NOLINT markers.
void CheckRawGetenv(const SourceFile& file, std::vector<Finding>* out) {
  if (StartsWith(file.rel, "src/core/runtime_options.")) return;
  constexpr const char* kTokens[] = {"getenv", "secure_getenv"};
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    for (const char* token : kTokens) {
      if (HasToken(file.code_lines[i], token)) {
        Emit(file, static_cast<int>(i + 1), "dpaudit-raw-getenv",
             "raw getenv; read knobs through RuntimeOptions "
             "(core/runtime_options.h) or the util/env.h accessors so every "
             "knob has a flag, a default, validation, and a --help line",
             out);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-include-guard: headers carry either #pragma once or the
// conventional guard DPAUDIT_<PATH>_H_ (path upper-cased, "src/" dropped).

void CheckIncludeGuard(const SourceFile& file, std::vector<Finding>* out) {
  if (!IsHeader(file.rel)) return;
  for (const std::string& line : file.code_lines) {
    if (line.find("#pragma") != std::string::npos &&
        HasToken(line, "once")) {
      return;
    }
  }
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    const size_t pos = line.find("#ifndef");
    if (pos == std::string::npos) continue;
    const std::string guard = LastIdentifier(line);
    bool defined = false;
    for (size_t j = i + 1; j < std::min(i + 4, file.code_lines.size()); ++j) {
      if (file.code_lines[j].find("#define") != std::string::npos &&
          HasToken(file.code_lines[j], guard)) {
        defined = true;
        break;
      }
    }
    if (!defined) break;  // an #ifndef that is not a guard: report missing
    const std::string expected = ExpectedGuard(file.rel);
    if (guard != expected) {
      Emit(file, static_cast<int>(i + 1), "dpaudit-include-guard",
           "include guard '" + guard + "' does not match convention '" +
               expected + "'",
           out);
    }
    return;
  }
  Emit(file, 1, "dpaudit-include-guard",
       "missing include guard; add '#ifndef " + ExpectedGuard(file.rel) +
           "' / '#define ...' or '#pragma once'",
       out);
}

// ---------------------------------------------------------------------------
// dpaudit-include-order: within a block of consecutive #include lines,
// angled includes come before quoted ones and each group is sorted
// lexicographically; a .cc file's primary header leads its block. Stable
// include order keeps diffs small and makes the include graph rules'
// --fix rewrites deterministic. Mechanical — `dpaudit_lint --fix` sorts
// blocks in place.

void CheckIncludeOrder(const SourceFile& file, std::vector<Finding>* out) {
  const std::vector<std::vector<IncludeBlockEntry>> blocks =
      IncludeBlocks(file.raw_lines);
  for (const std::vector<IncludeBlockEntry>& block : blocks) {
    const std::vector<size_t> order = CanonicalIncludeOrder(block, file.rel);
    for (size_t i = 0; i < block.size(); ++i) {
      if (order[i] == i) continue;
      Emit(file, static_cast<int>(block[i].index + 1),
           "dpaudit-include-order",
           "include block is not in canonical order (primary header first, "
           "then <...> before \"...\", each sorted); run dpaudit_lint --fix",
           out);
      break;  // one finding per block
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-lane-alias: lane workspace buffers (GradientWorkspace's lane_* and
// layers' per-lane scratch) are pack-transient — they are resized and
// overwritten on every lane pack, and may belong to a different worker's
// workspace. Storing a raw element pointer obtained through another object's
// lane buffer (`ws->lane_input.data()`) creates an alias that silently goes
// stale across packs; pass lane buffers through the batched layer API and
// call .data() at the use site instead.

void CheckLaneAlias(const SourceFile& file, std::vector<Finding>* out) {
  if (!InTree(file.rel, "src")) return;
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    size_t pos = 0;
    bool hit = false;
    while (!hit && (pos = line.find("lane_", pos)) != std::string::npos) {
      // Member access on some other object: ".lane_..." or "->lane_...".
      // A layer touching its own lane_* members (no accessor prefix) is the
      // owner, not an alias, and stays allowed.
      const bool dot = pos >= 1 && line[pos - 1] == '.';
      const bool arrow =
          pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>';
      if (!dot && !arrow) {
        pos += 5;
        continue;
      }
      // Raw element pointer taken from the buffer on the same line...
      const size_t data_pos = line.find(".data(", pos);
      if (data_pos == std::string::npos) {
        pos += 5;
        continue;
      }
      // ...and stored (an '=' to the left that is an assignment, not a
      // comparison), rather than passed straight into a call.
      for (size_t q = 0; q + 1 < pos; ++q) {
        if (line[q] != '=') continue;
        if (line[q + 1] == '=') {
          ++q;
          continue;
        }
        if (q > 0 && std::string("=!<>+-*/%&|^").find(line[q - 1]) !=
                         std::string::npos) {
          continue;
        }
        hit = true;
        break;
      }
      pos += 5;
    }
    if (hit) {
      Emit(file, static_cast<int>(i + 1), "dpaudit-lane-alias",
           "raw pointer stored into another object's lane workspace buffer; "
           "lane buffers are resized/overwritten per pack, so the alias goes "
           "stale — pass the buffer through the batched layer API and call "
           ".data() at the use site",
           out);
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-ledger-write: the privacy-audit ledger is append-only evidence
// with a single writer (src/obs/audit_ledger). Any other library, bench, or
// example referencing a `<binary>.ledger.jsonl` path — to open, create, or
// document hand-rolling one — bypasses the manifest header, the seq
// numbering, and the schema guarantees that `dpaudit_cli ledger check`
// relies on. Emit through InitAuditLedger/AppendLedger*, read through
// LoadLedgerFile. Scans raw lines: the path almost always lives inside a
// string literal, which the code-line scanner blanks out.

void CheckLedgerWrite(const SourceFile& file, std::vector<Finding>* out) {
  const bool scoped = InTree(file.rel, "src") || InTree(file.rel, "bench") ||
                      InTree(file.rel, "examples");
  if (!scoped || StartsWith(file.rel, "src/obs/")) return;
  for (size_t i = 0; i < file.raw_lines.size(); ++i) {
    if (file.raw_lines[i].find(".ledger.jsonl") != std::string::npos) {
      Emit(file, static_cast<int>(i + 1), "dpaudit-ledger-write",
           "ledger file path referenced outside src/obs/; the audit ledger "
           "has a single append-only writer so its manifest, seq numbering, "
           "and schema stay trustworthy — write through "
           "InitAuditLedger/AppendLedger*, read through LoadLedgerFile",
           out);
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-banned-fn: unbounded/locale-dependent C functions with safer
// replacements the codebase already uses.

struct BannedFn {
  const char* name;
  const char* instead;
};

constexpr BannedFn kBannedFns[] = {
    {"strcpy", "std::string or snprintf"},
    {"strcat", "std::string or snprintf"},
    {"sprintf", "snprintf or std::ostringstream"},
    {"vsprintf", "vsnprintf"},
    {"gets", "fgets"},
    {"strtok", "strtok_r or a manual split"},
    {"atof", "strtod or std::from_chars (atof has no error reporting and is "
             "locale-dependent — fatal in a parser)"},
    {"atoi", "strtol or std::from_chars"},
    {"atol", "strtol or std::from_chars"},
};

void CheckBannedFn(const SourceFile& file, std::vector<Finding>* out) {
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    for (const BannedFn& banned : kBannedFns) {
      if (!HasToken(line, banned.name)) continue;
      // Require a call: next non-space char after the token must be '('.
      size_t pos = line.find(banned.name);
      while (pos != std::string::npos) {
        size_t after = pos + std::string(banned.name).size();
        const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
        if (left_ok && (after >= line.size() || !IsIdentChar(line[after]))) {
          while (after < line.size() && line[after] == ' ') ++after;
          if (after < line.size() && line[after] == '(') {
            Emit(file, static_cast<int>(i + 1), "dpaudit-banned-fn",
                 std::string("banned function '") + banned.name +
                     "'; use " + banned.instead,
                 out);
            break;
          }
        }
        pos = line.find(banned.name, pos + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-raw-thread: threads come from util/thread_pool, never raw
// std::thread/std::async — the pool owns span-context adoption, queue
// telemetry, and the nested-budget discipline.

void CheckRawThread(const SourceFile& file, std::vector<Finding>* out) {
  if (!InTree(file.rel, "src")) return;
  if (StartsWith(file.rel, "src/util/thread_pool.")) return;
  constexpr const char* kTokens[] = {"std::thread", "std::jthread",
                                     "std::async"};
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    for (const char* token : kTokens) {
      if (HasToken(file.code_lines[i], token)) {
        Emit(file, static_cast<int>(i + 1), "dpaudit-raw-thread",
             std::string("raw '") + token +
                 "'; spawn work through util/thread_pool so telemetry "
                 "context adoption and thread budgets apply",
             out);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NOLINT suppression.

/// True when `raw` carries a suppression (marker = "NOLINT" or
/// "NOLINTNEXTLINE") that covers `rule`: either bare or with the rule in its
/// parenthesized list.
bool Suppresses(const std::string& raw, const std::string& marker,
                const std::string& rule) {
  size_t pos = 0;
  while ((pos = raw.find(marker, pos)) != std::string::npos) {
    const size_t after = pos + marker.size();
    // "NOLINT" must not be the prefix of "NOLINTNEXTLINE".
    if (after < raw.size() && raw[after] == 'N') {
      pos = after;
      continue;
    }
    if (after >= raw.size() || raw[after] != '(') return true;  // bare form
    const size_t close = raw.find(')', after);
    const std::string list = raw.substr(
        after + 1, close == std::string::npos ? std::string::npos
                                              : close - after - 1);
    if (HasToken(list, rule)) return true;
    pos = after;
  }
  return false;
}

bool IsSuppressed(const SourceFile& file, const Finding& f) {
  const size_t idx = static_cast<size_t>(f.line) - 1;
  if (idx < file.raw_lines.size() &&
      Suppresses(file.raw_lines[idx], "NOLINT", f.rule)) {
    return true;
  }
  return idx >= 1 && idx - 1 < file.raw_lines.size() &&
         Suppresses(file.raw_lines[idx - 1], "NOLINTNEXTLINE", f.rule);
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

SourceFile PrepareSource(const std::string& rel, const std::string& contents) {
  SourceFile file;
  file.rel = rel;
  enum class State {
    kNormal,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kNormal;
  std::string raw_delim;  // for raw strings: ")delim" terminator
  std::string raw_line;
  std::string code_line;
  const auto flush = [&] {
    file.raw_lines.push_back(raw_line);
    file.code_lines.push_back(code_line);
    raw_line.clear();
    code_line.clear();
  };
  for (size_t i = 0; i < contents.size(); ++i) {
    const char c = contents[i];
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kNormal;
      flush();
      continue;
    }
    raw_line += c;
    switch (state) {
      case State::kNormal: {
        const char next = i + 1 < contents.size() ? contents[i + 1] : '\0';
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_line += ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += ' ';
        } else if (c == '"') {
          const bool raw_prefix = !code_line.empty() &&
                                  code_line.back() == 'R';
          code_line += c;
          if (raw_prefix) {
            state = State::kRawString;
            raw_delim = ")";
            size_t j = i + 1;
            while (j < contents.size() && contents[j] != '(') {
              raw_delim += contents[j];
              ++j;
            }
            raw_delim += '"';
          } else {
            state = State::kString;
          }
        } else if (c == '\'') {
          code_line += c;
          state = State::kChar;
        } else {
          code_line += c;
        }
        break;
      }
      case State::kLineComment:
        code_line += ' ';
        break;
      case State::kBlockComment:
        code_line += ' ';
        if (c == '/' && i > 0 && contents[i - 1] == '*') {
          state = State::kNormal;
        }
        break;
      case State::kString:
      case State::kChar: {
        if (c == '\\') {
          code_line += ' ';
          if (i + 1 < contents.size() && contents[i + 1] != '\n') {
            raw_line += contents[i + 1];
            code_line += ' ';
            ++i;
          }
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          code_line += c;
          state = State::kNormal;
        } else {
          code_line += ' ';
        }
        break;
      }
      case State::kRawString: {
        code_line += ' ';
        if (c == '"' && raw_line.size() >= raw_delim.size() &&
            raw_line.compare(raw_line.size() - raw_delim.size(),
                             raw_delim.size(), raw_delim) == 0) {
          state = State::kNormal;
        }
        break;
      }
    }
  }
  if (!raw_line.empty() || !code_line.empty()) flush();
  return file;
}

bool ParseIncludeLine(const std::string& raw, std::string* spelled,
                      bool* angled) {
  size_t pos = 0;
  while (pos < raw.size() && (raw[pos] == ' ' || raw[pos] == '\t')) ++pos;
  if (pos >= raw.size() || raw[pos] != '#') return false;
  ++pos;
  while (pos < raw.size() && (raw[pos] == ' ' || raw[pos] == '\t')) ++pos;
  if (raw.compare(pos, 7, "include") != 0) return false;
  pos += 7;
  while (pos < raw.size() && (raw[pos] == ' ' || raw[pos] == '\t')) ++pos;
  if (pos >= raw.size()) return false;
  char close;
  if (raw[pos] == '"') {
    close = '"';
    *angled = false;
  } else if (raw[pos] == '<') {
    close = '>';
    *angled = true;
  } else {
    return false;
  }
  const size_t end = raw.find(close, pos + 1);
  if (end == std::string::npos) return false;
  *spelled = raw.substr(pos + 1, end - pos - 1);
  return true;
}

std::vector<std::vector<IncludeBlockEntry>> IncludeBlocks(
    const std::vector<std::string>& raw_lines) {
  std::vector<std::vector<IncludeBlockEntry>> blocks;
  std::vector<IncludeBlockEntry> current;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    IncludeBlockEntry entry;
    entry.index = i;
    if (ParseIncludeLine(raw_lines[i], &entry.spelled, &entry.angled)) {
      current.push_back(std::move(entry));
    } else if (!current.empty()) {
      blocks.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) blocks.push_back(std::move(current));
  return blocks;
}

bool IsPrimaryInclude(const std::string& spelled, const std::string& rel) {
  if (!EndsWith(rel, ".cc") && !EndsWith(rel, ".cpp") &&
      !EndsWith(rel, ".cxx")) {
    return false;
  }
  const auto stem = [](const std::string& path) -> std::string {
    const size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const size_t dot = base.find_last_of('.');
    if (dot != std::string::npos) base.resize(dot);
    return base;
  };
  if (!EndsWith(spelled, ".h") && !EndsWith(spelled, ".hpp") &&
      !EndsWith(spelled, ".hh")) {
    return false;
  }
  return stem(spelled) == stem(rel);
}

std::vector<size_t> CanonicalIncludeOrder(
    const std::vector<IncludeBlockEntry>& block, const std::string& rel) {
  std::vector<size_t> order(block.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  size_t first = 0;
  if (!block.empty() && IsPrimaryInclude(block[0].spelled, rel)) first = 1;
  std::stable_sort(order.begin() + static_cast<long>(first), order.end(),
                   [&block](size_t a, size_t b) {
                     if (block[a].angled != block[b].angled) {
                       return block[a].angled;  // <...> before "..."
                     }
                     return block[a].spelled < block[b].spelled;
                   });
  return order;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  findings->erase(
      std::unique(findings->begin(), findings->end(),
                  [](const Finding& a, const Finding& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.rule == b.rule && a.message == b.message;
                  }),
      findings->end());
}

std::string ExpectedGuard(const std::string& rel) {
  std::string path = rel;
  if (StartsWith(path, "src/")) path = path.substr(4);
  std::string guard = "DPAUDIT_";
  for (const char c : path) {
    guard += IsIdentChar(c)
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

const std::vector<Rule>& AllRules() {
  static const std::vector<Rule> kRules = {
      {"dpaudit-banned-fn",
       "no strcpy/sprintf/gets/atof-class functions; use bounded/checked "
       "replacements",
       &CheckBannedFn},
      {"dpaudit-cerr",
       "no direct std::cerr in src/; diagnostics go through DPAUDIT_LOG or "
       "RawLogStream()",
       &CheckCerr},
      {"dpaudit-include-guard",
       "headers carry #pragma once or the DPAUDIT_<PATH>_H_ guard",
       &CheckIncludeGuard},
      {"dpaudit-include-order",
       "include blocks sort primary header first, then <...> before "
       "\"...\", each lexicographic (fixable with --fix)",
       &CheckIncludeOrder},
      {"dpaudit-lane-alias",
       "no raw pointers stored into another object's lane workspace buffers; "
       "lane buffers are pack-transient",
       &CheckLaneAlias},
      {"dpaudit-ledger-write",
       "no .ledger.jsonl paths outside src/obs/; the audit ledger has a "
       "single append-only writer",
       &CheckLedgerWrite},
      {"dpaudit-omp",
       "no #pragma omp; parallelism goes through util/thread_pool",
       &CheckOmp},
      {"dpaudit-raw-getenv",
       "no raw getenv outside core/runtime_options; knobs go through the "
       "RuntimeOptions table or util/env.h",
       &CheckRawGetenv},
      {"dpaudit-raw-thread",
       "no raw std::thread/std::async in src/ outside util/thread_pool",
       &CheckRawThread},
      {"dpaudit-rng",
       "no rand()/std::random_device/ad-hoc engines outside util/random",
       &CheckRng},
      {"dpaudit-stdout",
       "no std::cout/printf/stdout writes in src/; results go through io/",
       &CheckStdout},
      {"dpaudit-unordered-float",
       "no floating-point accumulation over unordered container iteration",
       &CheckUnorderedFloat},
  };
  return kRules;
}

void LintFile(const SourceFile& file, const std::vector<std::string>& rules,
              std::vector<Finding>* out) {
  std::vector<Finding> found;
  for (const Rule& rule : AllRules()) {
    if (!rules.empty() &&
        std::find(rules.begin(), rules.end(), rule.name) == rules.end()) {
      continue;
    }
    rule.check(file, &found);
  }
  for (Finding& f : found) {
    if (!IsSuppressed(file, f)) out->push_back(std::move(f));
  }
  SortFindings(out);
}

bool LintPath(const std::string& path, const std::string& root,
              const std::vector<std::string>& rules,
              std::vector<Finding>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();

  std::error_code ec;
  fs::path rel = fs::relative(fs::path(path), fs::path(root), ec);
  std::string rel_str =
      (ec || rel.empty() || StartsWith(rel.generic_string(), ".."))
          ? fs::path(path).generic_string()
          : rel.generic_string();
  LintFile(PrepareSource(rel_str, buffer.str()), rules, out);
  return true;
}

std::vector<std::string> CollectFiles(const std::string& path) {
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) {
    files.push_back(path);
    return files;
  }
  constexpr const char* kExtensions[] = {".h", ".hh", ".hpp",
                                         ".cc", ".cpp", ".cxx"};
  fs::recursive_directory_iterator it(path, ec);
  const fs::recursive_directory_iterator end;
  while (!ec && it != end) {
    const fs::path p = it->path();
    const std::string name = p.filename().string();
    if (it->is_directory(ec)) {
      // Skip build trees, VCS/hidden dirs, and the intentionally-violating
      // lint fixtures.
      if (StartsWith(name, ".") || StartsWith(name, "build") ||
          name == "lint_fixtures") {
        it.disable_recursion_pending();
      }
    } else {
      const std::string ext = p.extension().string();
      for (const char* want : kExtensions) {
        if (ext == want) {
          files.push_back(p.generic_string());
          break;
        }
      }
    }
    it.increment(ec);
  }
  std::sort(files.begin(), files.end());
  return files;
}

void WriteText(const std::vector<Finding>& findings, std::ostream& out) {
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
}

void WriteJson(const std::vector<Finding>& findings, size_t files_scanned,
               std::ostream& out) {
  out << "{\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ",";
    out << "{\"file\":\"" << JsonEscape(f.file) << "\",\"line\":" << f.line
        << ",\"rule\":\"" << JsonEscape(f.rule) << "\",\"message\":\""
        << JsonEscape(f.message) << "\"}";
  }
  out << "],\"finding_count\":" << findings.size()
      << ",\"files_scanned\":" << files_scanned << "}\n";
}

}  // namespace lint
}  // namespace dpaudit
