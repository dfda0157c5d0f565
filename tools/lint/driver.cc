#include "tools/lint/driver.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/fix.h"
#include "tools/lint/lexer.h"
#include "tools/lint/model.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace lint {
namespace {

namespace fs = std::filesystem;

std::string Relativize(const std::string& path, const std::string& root) {
  std::error_code ec;
  fs::path rel = fs::relative(fs::path(path), fs::path(root), ec);
  if (ec || rel.empty() || StartsWith(rel.generic_string(), "..")) {
    return fs::path(path).generic_string();
  }
  return rel.generic_string();
}

bool ReadFile(const std::string& path, std::string* contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *contents = buffer.str();
  return true;
}

}  // namespace

TreeLintResult LintTree(const std::vector<std::string>& paths,
                        const TreeLintOptions& options) {
  TreeLintResult result;

  std::vector<std::string> files;
  for (const std::string& path : paths) {
    // Resolve against --root first so `dpaudit_lint --root fixtures src`
    // scans fixtures/src even when a src/ also exists in the cwd.
    fs::path resolved = fs::path(options.root) / path;
    if (!fs::exists(resolved)) resolved = fs::path(path);
    std::vector<std::string> collected = CollectFiles(resolved.string());
    if (collected.empty()) {
      result.errors.push_back("no lintable files under " + path);
      return result;
    }
    files.insert(files.end(), collected.begin(), collected.end());
  }

  LayerConfig layers;
  if (options.graph_rules) {
    std::string layers_path = options.layers_path;
    if (layers_path.empty()) {
      layers_path =
          (fs::path(options.root) / "tools" / "lint" / "layers.txt")
              .string();
    }
    std::string error;
    if (fs::exists(layers_path)) {
      if (!LoadLayerConfig(layers_path, &layers, &error)) {
        result.errors.push_back(error);
        return result;
      }
      // Messages cite the repo-relative spelling, not an absolute path.
      layers.origin = Relativize(layers_path, options.root);
    }
  }

  std::vector<FileModel> models(files.size());
  std::atomic<size_t> fixed{0};
  std::mutex errors_mu;
  std::vector<std::string> errors;

  const size_t threads =
      options.threads != 0 ? options.threads : DefaultThreadCount();
  ThreadPool::ParallelFor(files.size(), threads, [&](size_t i) {
    std::string contents;
    if (!ReadFile(files[i], &contents)) {
      std::lock_guard<std::mutex> lock(errors_mu);
      errors.push_back("cannot read " + files[i]);
      return;
    }
    const std::string rel = Relativize(files[i], options.root);
    if (options.fix) {
      const std::string canonical = Canonicalize(rel, contents);
      if (canonical != contents) {
        std::ofstream out(files[i], std::ios::binary | std::ios::trunc);
        if (out) {
          out << canonical;
          contents = canonical;
          fixed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::lock_guard<std::mutex> lock(errors_mu);
          errors.push_back("cannot write fix to " + files[i]);
        }
      }
    }
    models[i] = AnalyzeFile(rel, contents);
  });

  result.files_scanned = files.size();
  result.files_fixed = fixed.load();
  result.errors = std::move(errors);
  if (!result.errors.empty()) return result;

  // Per-file findings, filtered to the requested rules.
  for (const FileModel& model : models) {
    for (const Finding& f : model.findings) {
      if (!options.rules.empty() &&
          std::find(options.rules.begin(), options.rules.end(), f.rule) ==
              options.rules.end()) {
        continue;
      }
      result.findings.push_back(f);
    }
  }

  if (options.graph_rules) {
    const TreeModel tree =
        BuildTreeModel(std::move(models), std::move(layers));
    RunGraphRules(tree, options.rules, &result.findings);
  }
  SortFindings(&result.findings);
  return result;
}

}  // namespace lint
}  // namespace dpaudit
