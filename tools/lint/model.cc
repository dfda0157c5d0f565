#include "tools/lint/model.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace dpaudit {
namespace lint {
namespace {

bool PrefixMatches(const std::string& rel, const std::string& prefix) {
  if (rel == prefix) return true;
  if (!StartsWith(rel, prefix)) return false;
  // "src/util" matches "src/util/..." and "src/util.h"-style stems are not
  // a thing in this tree; require a path or extension boundary.
  const char next = rel[prefix.size()];
  return next == '/' || next == '.' || prefix.back() == '/' ||
         prefix.back() == '.';
}

void EmitGraph(const TreeModel& tree, size_t file_idx, int line,
               const char* rule, std::string message,
               std::vector<Finding>* out) {
  Finding f;
  f.file = tree.files[file_idx].rel;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  out->push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// dpaudit-layering: the allowed-edge matrix in tools/lint/layers.txt is the
// architecture; any include edge it does not permit is a finding. The
// `restrict` directives additionally pin sensitive headers (the privacy
// ledger) to their designated bridge files, so "core/ reaches into the
// ledger outside ledger_bridge" is caught even though core -> obs is a
// legal layer edge.

void CheckLayering(const TreeModel& tree, std::vector<Finding>* out) {
  const LayerConfig& config = tree.layers;
  if (config.layers.empty() && config.restrictions.empty()) return;
  for (size_t i = 0; i < tree.files.size(); ++i) {
    const FileModel& from = tree.files[i];
    for (const TreeModel::Edge& edge : tree.edges[i]) {
      const FileModel& to = tree.files[edge.target];
      for (const LayerConfig::Restriction& r : config.restrictions) {
        if (!PrefixMatches(to.rel, r.target_prefix)) continue;
        bool ok = false;
        for (const std::string& allowed : r.allowed_prefixes) {
          if (PrefixMatches(from.rel, allowed)) {
            ok = true;
            break;
          }
        }
        if (!ok) {
          EmitGraph(tree, i, edge.line, "dpaudit-layering",
                    "restricted header '" + to.rel +
                        "' may only be included from its designated "
                        "bridge files (see 'restrict " +
                        r.target_prefix + "' in " + config.origin + ")",
                    out);
        }
      }
      const LayerConfig::Layer* lf = config.LayerOf(from.rel);
      const LayerConfig::Layer* lt = config.LayerOf(to.rel);
      if (lf == nullptr || lt == nullptr || lf == lt) continue;
      bool ok = false;
      const auto it = config.allowed.find(lf->name);
      if (it != config.allowed.end()) {
        for (const std::string& t : it->second) {
          if (t == "*" || t == lt->name) {
            ok = true;
            break;
          }
        }
      }
      if (!ok) {
        EmitGraph(tree, i, edge.line, "dpaudit-layering",
                  "layer '" + lf->name + "' may not include layer '" +
                      lt->name + "' ('" + to.rel +
                      "'); amend the allowed-edge matrix in " +
                      config.origin + " only with an architectural reason",
                  out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-include-cycle: a cycle in the include graph means no topological
// build order exists and the guard-protected result depends on who is
// included first — always a latent bug. DFS with an explicit stack; each
// cycle is reported once, anchored at its lexicographically smallest file.

void CheckIncludeCycle(const TreeModel& tree, std::vector<Finding>* out) {
  const size_t n = tree.files.size();
  std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<size_t> stack;
  std::set<std::string> reported;

  // Recursive lambda via explicit frames to survive deep include chains.
  struct Frame {
    size_t node;
    size_t next_edge;
  };
  for (size_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    std::vector<Frame> frames;
    frames.push_back({root, 0});
    color[root] = 1;
    stack.push_back(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next_edge < tree.edges[f.node].size()) {
        const TreeModel::Edge& edge = tree.edges[f.node][f.next_edge++];
        const size_t to = edge.target;
        if (color[to] == 0) {
          color[to] = 1;
          stack.push_back(to);
          frames.push_back({to, 0});
        } else if (color[to] == 1) {
          // Found a cycle: stack suffix from `to` to current node.
          std::vector<size_t> cycle;
          for (size_t j = stack.size(); j-- > 0;) {
            cycle.push_back(stack[j]);
            if (stack[j] == to) break;
          }
          std::reverse(cycle.begin(), cycle.end());
          // Canonicalize: rotate so the smallest rel path leads.
          size_t best = 0;
          for (size_t j = 1; j < cycle.size(); ++j) {
            if (tree.files[cycle[j]].rel < tree.files[cycle[best]].rel) {
              best = j;
            }
          }
          std::rotate(cycle.begin(),
                      cycle.begin() + static_cast<long>(best), cycle.end());
          std::string key, path;
          for (const size_t idx : cycle) {
            key += tree.files[idx].rel + "|";
            path += tree.files[idx].rel + " -> ";
          }
          path += tree.files[cycle[0]].rel;
          if (reported.insert(key).second) {
            // Anchor at the include line in the first cycle file that
            // points to the second.
            const size_t head = cycle[0];
            const size_t next = cycle.size() > 1 ? cycle[1] : cycle[0];
            int line = 1;
            for (const TreeModel::Edge& e : tree.edges[head]) {
              if (e.target == next) {
                line = e.line;
                break;
              }
            }
            EmitGraph(tree, head, line, "dpaudit-include-cycle",
                      "include cycle: " + path +
                          "; break it with a forward declaration or by "
                          "moving the shared types into a lower header",
                      out);
          }
        }
      } else {
        color[f.node] = 2;
        stack.pop_back();
        frames.pop_back();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-unused-include / dpaudit-missing-include: IWYU-lite over the
// symbol xref. `unused` = a direct repo include none of whose declared
// symbols the includer references. `missing` = a referenced symbol that is
// declared in exactly one repo header the referencing file does not include
// directly (it compiles only through a transitive include — exactly the
// dependency that silently breaks under refactoring). Both err quiet: files
// with no extractable declarations are skipped, ambiguous symbols are
// skipped, and member accesses never count as references.

bool SameStem(const std::string& a, const std::string& b) {
  const auto stem = [](const std::string& path) {
    const size_t dot = path.find_last_of('.');
    return dot == std::string::npos ? path : path.substr(0, dot);
  };
  return stem(a) == stem(b);
}

void CheckUnusedInclude(const TreeModel& tree, std::vector<Finding>* out) {
  for (size_t i = 0; i < tree.files.size(); ++i) {
    const FileModel& from = tree.files[i];
    for (const TreeModel::Edge& edge : tree.edges[i]) {
      const FileModel& to = tree.files[edge.target];
      if (IsPrimaryInclude(edge.spelled, from.rel)) continue;
      if (SameStem(from.rel, to.rel)) continue;  // foo.h <-> foo.cc pair
      if (to.decls.empty()) continue;            // nothing to judge by
      bool used = false;
      for (const SymbolDecl& d : to.decls) {
        if (from.HasRef(d.name)) {
          used = true;
          break;
        }
      }
      if (!used) {
        EmitGraph(tree, i, edge.line, "dpaudit-unused-include",
                  "include of '" + to.rel + "' appears unused (none of its " +
                      std::to_string(to.decls.size()) +
                      " declared symbols are referenced); remove it, or "
                      "keep it with // NOLINT(dpaudit-unused-include) and a "
                      "reason",
                  out);
      }
    }
  }
}

void CheckMissingInclude(const TreeModel& tree, std::vector<Finding>* out) {
  // name -> header indices declaring it (types, functions, macros).
  std::map<std::string, std::vector<size_t>> declarers;
  for (size_t i = 0; i < tree.files.size(); ++i) {
    const FileModel& f = tree.files[i];
    if (!f.is_header) continue;
    for (const SymbolDecl& d : f.decls) {
      if (d.kind == SymbolKind::kVariable) continue;
      std::vector<size_t>& v = declarers[d.name];
      if (v.empty() || v.back() != i) v.push_back(i);
    }
  }
  for (size_t i = 0; i < tree.files.size(); ++i) {
    const FileModel& from = tree.files[i];
    // A symbol is satisfied by a direct include or by one hop through a
    // direct include's own includes (a header's immediate includes are part
    // of its contract here — experiment.h exporting Dataset is deliberate).
    // Only deeper, genuinely accidental transitive reliance is flagged.
    std::set<size_t> direct;
    for (const TreeModel::Edge& edge : tree.edges[i]) {
      direct.insert(edge.target);
      for (const TreeModel::Edge& hop : tree.edges[edge.target]) {
        direct.insert(hop.target);
      }
    }
    std::set<std::string> own;
    for (const SymbolDecl& d : from.decls) own.insert(d.name);
    for (const SymbolRef& ref : from.refs) {
      if (ref.member_only || ref.name.size() < 3) continue;
      if (own.count(ref.name) != 0) continue;
      const auto it = declarers.find(ref.name);
      if (it == declarers.end()) continue;
      // Unique declaring header, not this file, not directly included.
      std::vector<size_t> others;
      for (const size_t h : it->second) {
        if (h != i) others.push_back(h);
      }
      if (others.size() != 1) continue;
      const size_t h = others[0];
      if (direct.count(h) != 0) continue;
      if (SameStem(from.rel, tree.files[h].rel)) continue;
      // A same-spelled declaration in anything directly included (e.g. a
      // member `Cell(...)` declared in this TU's own header) means the
      // reference resolves locally, not through `h`.
      bool shadowed = false;
      for (const size_t d : direct) {
        for (const SymbolDecl& dd : tree.files[d].decls) {
          if (dd.name == ref.name) {
            shadowed = true;
            break;
          }
        }
        if (shadowed) break;
      }
      if (shadowed) continue;
      EmitGraph(tree, i, ref.line, "dpaudit-missing-include",
                "'" + ref.name + "' is declared in '" + tree.files[h].rel +
                    "', which this file does not include directly — the "
                    "reference compiles only through a transitive include; "
                    "add the #include",
                out);
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-mechanism-flow: the paper's guarantee chain is clip -> calibrated
// sigma -> Gaussian perturbation; an implementation that perturbs without
// sitting downstream of the clipping/sensitivity helpers (the exact failure
// mode of "Debugging Differential Privacy") claims an eps it does not
// provide. Three checks: (a) a TU outside dp/ that invokes the mechanism
// (Perturb/PerturbScalar/LogDensityPair) must also reference a
// clip/sensitivity helper harvested from util/, core/, dp/, or nn/ (e.g.
// math_util, neighbor_sums, sensitivity, per-example clipping); (b) raw std::normal_distribution is banned outside dp/
// and util/random (noise flows through the mechanism, never ad hoc); (c) a
// GaussianMechanism constructed from a literal sigma outside dp/ bypasses
// calibration.

const char* const kMechanismEntryPoints[] = {"Perturb", "PerturbScalar",
                                             "LogDensityPair"};

bool NameIsClipHelper(const std::string& name) {
  return name.find("Clip") != std::string::npos ||
         name.find("Sensitivity") != std::string::npos || name == "L2Norm";
}

void CheckMechanismFlow(const TreeModel& tree, std::vector<Finding>* out) {
  // Helper symbols, harvested from the model so the rule follows renames.
  std::set<std::string> helpers;
  for (const FileModel& f : tree.files) {
    if (!StartsWith(f.rel, "src/util/") && !StartsWith(f.rel, "src/core/") &&
        !StartsWith(f.rel, "src/dp/") && !StartsWith(f.rel, "src/nn/")) {
      continue;
    }
    for (const SymbolDecl& d : f.decls) {
      if (NameIsClipHelper(d.name)) helpers.insert(d.name);
    }
  }
  for (size_t i = 0; i < tree.files.size(); ++i) {
    const FileModel& f = tree.files[i];
    if (!StartsWith(f.rel, "src/")) continue;
    const bool in_dp = StartsWith(f.rel, "src/dp/");
    // (b) raw normal distributions.
    if (!in_dp && !StartsWith(f.rel, "src/util/random.")) {
      const SymbolRef* raw = f.FindRef("normal_distribution");
      if (raw != nullptr) {
        EmitGraph(tree, i, raw->line, "dpaudit-mechanism-flow",
                  "raw std::normal_distribution outside dp/ and "
                  "util/random; DP noise must flow through "
                  "GaussianMechanism so sigma stays tied to the calibrated "
                  "sensitivity",
                  out);
      }
    }
    if (in_dp) continue;
    // (c) literal sigma.
    if (f.gaussian_literal_line != 0) {
      EmitGraph(tree, i, f.gaussian_literal_line, "dpaudit-mechanism-flow",
                "GaussianMechanism constructed from a literal sigma outside "
                "dp/; sigma must come from calibration "
                "(CalibrateGaussianSigma) or a config, never a hard-coded "
                "constant",
                out);
    }
    // (a) mechanism invocation without clip/sensitivity context.
    if (f.is_header || helpers.empty()) continue;
    const SymbolRef* mech = nullptr;
    for (const char* name : kMechanismEntryPoints) {
      const SymbolRef* r = f.FindRef(name);
      if (r != nullptr && (mech == nullptr || r->line < mech->line)) {
        mech = r;
      }
    }
    if (mech == nullptr) continue;
    bool has_helper = false;
    for (const std::string& h : helpers) {
      if (f.HasRef(h)) {
        has_helper = true;
        break;
      }
    }
    if (!has_helper) {
      EmitGraph(
          tree, i, mech->line, "dpaudit-mechanism-flow",
          "this TU invokes the Gaussian mechanism but references no "
          "clip/sensitivity helper (util/math_util, core/neighbor_sums, "
                "nn per-example clipping, "
          "dp/sensitivity); a perturbation site that is not downstream of "
          "clipping voids the eps claim — plumb the clipped-sum path "
          "through, or NOLINT with a justification",
          out);
    }
  }
}

// ---------------------------------------------------------------------------
// dpaudit-unreached-module: a src/ header that nothing outside tests/
// includes (its own source file aside) is a module no binary reaches; its
// tests keep dead code alive. Delete it or wire it into a result. A module
// kept on purpose carries `// NOLINT(dpaudit-unreached-module): <reason>`
// on its first line, where the finding is anchored. Includers can only be
// seen among the collected files, so the rule stays quiet on runs that
// collect nothing outside src/ (linting src/ alone).

void CheckUnreachedModule(const TreeModel& tree, std::vector<Finding>* out) {
  bool sees_includers = false;
  std::vector<bool> reached(tree.files.size(), false);
  for (size_t i = 0; i < tree.files.size(); ++i) {
    const std::string& from = tree.files[i].rel;
    if (!StartsWith(from, "src/")) sees_includers = true;
    if (StartsWith(from, "tests/")) continue;
    for (const TreeModel::Edge& edge : tree.edges[i]) {
      if (!SameStem(from, tree.files[edge.target].rel)) {
        reached[edge.target] = true;
      }
    }
  }
  if (!sees_includers) return;
  for (size_t i = 0; i < tree.files.size(); ++i) {
    const FileModel& file = tree.files[i];
    if (!file.is_header || !StartsWith(file.rel, "src/") || reached[i]) {
      continue;
    }
    EmitGraph(tree, i, 1, "dpaudit-unreached-module",
              "'" + file.rel +
                  "' is included from nowhere outside tests/; delete the "
                  "module or wire it into a binary (a deliberate keep needs "
                  "a NOLINT with a reason)",
              out);
  }
}

}  // namespace

const LayerConfig::Layer* LayerConfig::LayerOf(const std::string& rel) const {
  const Layer* best = nullptr;
  size_t best_len = 0;
  for (const Layer& layer : layers) {
    for (const std::string& prefix : layer.prefixes) {
      if (PrefixMatches(rel, prefix) && prefix.size() >= best_len) {
        best = &layer;
        best_len = prefix.size();
      }
    }
  }
  return best;
}

bool ParseLayerConfig(const std::string& contents, const std::string& origin,
                      LayerConfig* config, std::string* error) {
  config->layers.clear();
  config->allowed.clear();
  config->restrictions.clear();
  config->origin = origin;
  std::istringstream in(contents);
  std::string line;
  int lineno = 0;
  std::set<std::string> layer_names;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string directive;
    if (!(fields >> directive)) continue;
    if (directive == "layer") {
      LayerConfig::Layer layer;
      fields >> layer.name;
      std::string prefix;
      while (fields >> prefix) layer.prefixes.push_back(prefix);
      if (layer.name.empty() || layer.prefixes.empty()) {
        *error = origin + ":" + std::to_string(lineno) +
                 ": 'layer' needs a name and at least one path prefix";
        return false;
      }
      if (!layer_names.insert(layer.name).second) {
        *error = origin + ":" + std::to_string(lineno) +
                 ": duplicate layer '" + layer.name + "'";
        return false;
      }
      config->layers.push_back(std::move(layer));
    } else if (directive == "allow") {
      std::string from;
      fields >> from;
      std::vector<std::string> tos;
      std::string to;
      while (fields >> to) tos.push_back(to);
      if (from.empty() || tos.empty()) {
        *error = origin + ":" + std::to_string(lineno) +
                 ": 'allow' needs a source layer and at least one target";
        return false;
      }
      if (layer_names.count(from) == 0) {
        *error = origin + ":" + std::to_string(lineno) +
                 ": 'allow' references undeclared layer '" + from + "'";
        return false;
      }
      for (const std::string& t : tos) {
        if (t != "*" && layer_names.count(t) == 0) {
          *error = origin + ":" + std::to_string(lineno) +
                   ": 'allow' references undeclared layer '" + t + "'";
          return false;
        }
        config->allowed[from].push_back(t);
      }
    } else if (directive == "restrict") {
      LayerConfig::Restriction r;
      r.line = lineno;
      fields >> r.target_prefix;
      std::string prefix;
      while (fields >> prefix) r.allowed_prefixes.push_back(prefix);
      if (r.target_prefix.empty() || r.allowed_prefixes.empty()) {
        *error = origin + ":" + std::to_string(lineno) +
                 ": 'restrict' needs a target prefix and at least one "
                 "allowed includer prefix";
        return false;
      }
      config->restrictions.push_back(std::move(r));
    } else {
      *error = origin + ":" + std::to_string(lineno) +
               ": unknown directive '" + directive + "'";
      return false;
    }
  }
  return true;
}

bool LoadLayerConfig(const std::string& path, LayerConfig* config,
                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read layer config " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseLayerConfig(buffer.str(), path, config, error);
}

const FileModel* TreeModel::Find(const std::string& rel) const {
  const size_t idx = IndexOf(rel);
  return idx < files.size() ? &files[idx] : nullptr;
}

size_t TreeModel::IndexOf(const std::string& rel) const {
  const auto it = std::lower_bound(
      files.begin(), files.end(), rel,
      [](const FileModel& f, const std::string& r) { return f.rel < r; });
  if (it == files.end() || it->rel != rel) return files.size();
  return static_cast<size_t>(it - files.begin());
}

size_t TreeModel::ResolveInclude(const std::string& spelled) const {
  // src/ files spell includes relative to src/; tools, tests, and bench
  // spell them from the repo root. Try both.
  size_t idx = IndexOf("src/" + spelled);
  if (idx < files.size()) return idx;
  return IndexOf(spelled);
}

TreeModel BuildTreeModel(std::vector<FileModel> files, LayerConfig layers) {
  TreeModel tree;
  tree.files = std::move(files);
  tree.layers = std::move(layers);
  std::sort(tree.files.begin(), tree.files.end(),
            [](const FileModel& a, const FileModel& b) {
              return a.rel < b.rel;
            });
  tree.edges.resize(tree.files.size());
  for (size_t i = 0; i < tree.files.size(); ++i) {
    for (const IncludeDirective& inc : tree.files[i].includes) {
      if (inc.angled) continue;  // system headers are not part of the model
      const size_t target = tree.ResolveInclude(inc.spelled);
      if (target >= tree.files.size() || target == i) continue;
      TreeModel::Edge edge;
      edge.target = target;
      edge.line = inc.line;
      edge.spelled = inc.spelled;
      tree.edges[i].push_back(std::move(edge));
    }
  }
  return tree;
}

const std::vector<GraphRule>& AllGraphRules() {
  static const std::vector<GraphRule> kRules = {
      {"dpaudit-include-cycle",
       "no cycles in the include graph; break them with forward "
       "declarations or a lower shared header",
       &CheckIncludeCycle},
      {"dpaudit-layering",
       "include edges must satisfy the allowed-edge matrix in "
       "tools/lint/layers.txt (plus 'restrict' bridge pins)",
       &CheckLayering},
      {"dpaudit-mechanism-flow",
       "mechanism call sites sit downstream of clip/sensitivity helpers; "
       "no raw normal_distribution or literal sigma outside dp/",
       &CheckMechanismFlow},
      {"dpaudit-missing-include",
       "referenced repo symbols must be included directly, not through "
       "transitive includes (IWYU-lite)",
       &CheckMissingInclude},
      {"dpaudit-unreached-module",
       "every src/ header is included from outside tests/ (its own source "
       "aside); a deliberate keep states its reason in the NOLINT",
       &CheckUnreachedModule},
      {"dpaudit-unused-include",
       "no direct includes whose declared symbols are never referenced "
       "(IWYU-lite)",
       &CheckUnusedInclude},
  };
  return kRules;
}

void RunGraphRules(const TreeModel& tree, const std::vector<std::string>& rules,
                   std::vector<Finding>* out) {
  std::vector<Finding> found;
  for (const GraphRule& rule : AllGraphRules()) {
    if (!rules.empty() &&
        std::find(rules.begin(), rules.end(), rule.name) == rules.end()) {
      continue;
    }
    rule.check(tree, &found);
  }
  for (Finding& f : found) {
    const FileModel* model = tree.Find(f.file);
    if (model != nullptr && IsSuppressedInModel(*model, f.rule, f.line)) {
      continue;
    }
    out->push_back(std::move(f));
  }
  SortFindings(out);
}

bool IsKnownRule(const std::string& name) {
  for (const Rule& r : AllRules()) {
    if (r.name == name) return true;
  }
  for (const GraphRule& r : AllGraphRules()) {
    if (r.name == name) return true;
  }
  return false;
}

void WriteSarif(const std::vector<Finding>& findings, std::ostream& out) {
  out << "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\","
         "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
         "\"name\":\"dpaudit_lint\","
         "\"informationUri\":\"https://github.com/\",\"rules\":[";
  bool first = true;
  const auto rule_entry = [&](const std::string& name,
                              const std::string& summary) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":\"" << JsonEscape(name)
        << "\",\"shortDescription\":{\"text\":\"" << JsonEscape(summary)
        << "\"}}";
  };
  for (const Rule& r : AllRules()) rule_entry(r.name, r.summary);
  for (const GraphRule& r : AllGraphRules()) rule_entry(r.name, r.summary);
  out << "]}},\"results\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ",";
    out << "{\"ruleId\":\"" << JsonEscape(f.rule)
        << "\",\"level\":\"error\",\"message\":{\"text\":\""
        << JsonEscape(f.message)
        << "\"},\"locations\":[{\"physicalLocation\":{"
           "\"artifactLocation\":{\"uri\":\""
        << JsonEscape(f.file)
        << "\",\"uriBaseId\":\"%SRCROOT%\"},\"region\":{\"startLine\":"
        << (f.line > 0 ? f.line : 1) << "}}}]}";
  }
  out << "]}]}\n";
}

}  // namespace lint
}  // namespace dpaudit
