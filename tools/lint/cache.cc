#include "tools/lint/cache.h"
#include "tools/lint/lint.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace dpaudit {
namespace lint {
namespace {

constexpr const char kMagic[] = "dpaudit-lint-cache v2";

std::string NextLine(const std::string& text, size_t* pos) {
  if (*pos >= text.size()) return std::string();
  size_t end = text.find('\n', *pos);
  if (end == std::string::npos) end = text.size();
  std::string line = text.substr(*pos, end - *pos);
  *pos = end + 1;
  return line;
}

/// "key rest" split at the first space.
bool SplitField(const std::string& line, std::string* key,
                std::string* rest) {
  const size_t space = line.find(' ');
  if (space == std::string::npos) {
    *key = line;
    rest->clear();
    return !key->empty();
  }
  *key = line.substr(0, space);
  *rest = line.substr(space + 1);
  return true;
}

}  // namespace

void SerializeFileModel(const FileModel& model, std::string* out) {
  char buf[64];
  *out += "file " + model.rel + "\n";
  std::snprintf(buf, sizeof(buf), "fp %016llx\n",
                static_cast<unsigned long long>(model.fingerprint));
  *out += buf;
  *out += model.is_header ? "hdr 1\n" : "hdr 0\n";
  if (model.gaussian_literal_line != 0) {
    *out += "gl " + std::to_string(model.gaussian_literal_line) + "\n";
  }
  for (const IncludeDirective& inc : model.includes) {
    *out += "inc " + std::to_string(inc.line) + (inc.angled ? " 1 " : " 0 ") +
            inc.spelled + "\n";
  }
  for (const SymbolDecl& d : model.decls) {
    *out += "decl " + std::to_string(static_cast<int>(d.kind)) + " " +
            std::to_string(d.line) + " " + d.name + "\n";
  }
  // Refs are the bulky part; pack them onto one line as name:line:member.
  if (!model.refs.empty()) {
    *out += "refs";
    for (const SymbolRef& r : model.refs) {
      *out += " " + r.name + ":" + std::to_string(r.line) +
              (r.member_only ? ":1" : ":0");
    }
    *out += "\n";
  }
  for (const SuppressDirective& d : model.suppressions) {
    *out += "sup " + std::to_string(d.line) + (d.next_line ? " 1" : " 0") +
            (d.bare ? " 1" : " 0") + (d.reason ? " 1" : " 0");
    for (size_t i = 0; i < d.rules.size(); ++i) {
      *out += (i == 0 ? " " : ",") + d.rules[i];
    }
    *out += "\n";
  }
  for (const Finding& f : model.findings) {
    // The message is free text but never contains a newline.
    *out += "find " + std::to_string(f.line) + " " + f.rule + " " +
            f.message + "\n";
  }
  *out += "end\n";
}

bool DeserializeFileModel(const std::string& text, size_t* pos,
                          FileModel* model) {
  *model = FileModel();
  std::string key, rest;
  if (!SplitField(NextLine(text, pos), &key, &rest) || key != "file" ||
      rest.empty()) {
    return false;
  }
  model->rel = rest;
  while (*pos < text.size()) {
    const std::string line = NextLine(text, pos);
    if (line == "end") return true;
    if (!SplitField(line, &key, &rest)) return false;
    if (key == "fp") {
      model->fingerprint = std::strtoull(rest.c_str(), nullptr, 16);
    } else if (key == "hdr") {
      model->is_header = rest == "1";
    } else if (key == "gl") {
      model->gaussian_literal_line =
          static_cast<int>(std::strtol(rest.c_str(), nullptr, 10));
    } else if (key == "inc") {
      IncludeDirective inc;
      std::istringstream fields(rest);
      int angled = 0;
      fields >> inc.line >> angled;
      std::getline(fields >> std::ws, inc.spelled);
      inc.angled = angled != 0;
      if (inc.spelled.empty()) return false;
      model->includes.push_back(std::move(inc));
    } else if (key == "decl") {
      SymbolDecl d;
      std::istringstream fields(rest);
      int kind = 0;
      fields >> kind >> d.line;
      std::getline(fields >> std::ws, d.name);
      if (d.name.empty() || kind < 0 || kind > 3) return false;
      d.kind = static_cast<SymbolKind>(kind);
      model->decls.push_back(std::move(d));
    } else if (key == "refs") {
      std::istringstream fields(rest);
      std::string item;
      while (fields >> item) {
        const size_t c2 = item.rfind(':');
        const size_t c1 =
            c2 == std::string::npos ? std::string::npos
                                    : item.rfind(':', c2 - 1);
        if (c1 == std::string::npos || c1 == 0) return false;
        SymbolRef r;
        r.name = item.substr(0, c1);
        r.line = static_cast<int>(
            std::strtol(item.substr(c1 + 1, c2 - c1 - 1).c_str(), nullptr,
                        10));
        r.member_only = item.substr(c2 + 1) == "1";
        model->refs.push_back(std::move(r));
      }
    } else if (key == "sup") {
      SuppressDirective d;
      std::istringstream fields(rest);
      int next = 0, bare = 0, reason = 0;
      fields >> d.line >> next >> bare >> reason;
      d.next_line = next != 0;
      d.bare = bare != 0;
      d.reason = reason != 0;
      std::string list;
      if (fields >> list) {
        size_t begin = 0;
        while (begin <= list.size()) {
          size_t comma = list.find(',', begin);
          if (comma == std::string::npos) comma = list.size();
          const std::string item = list.substr(begin, comma - begin);
          if (!item.empty()) d.rules.push_back(item);
          begin = comma + 1;
        }
      }
      model->suppressions.push_back(std::move(d));
    } else if (key == "find") {
      Finding f;
      f.file = model->rel;
      const size_t s1 = rest.find(' ');
      const size_t s2 = rest.find(' ', s1 + 1);
      if (s1 == std::string::npos || s2 == std::string::npos) return false;
      f.line = static_cast<int>(
          std::strtol(rest.substr(0, s1).c_str(), nullptr, 10));
      f.rule = rest.substr(s1 + 1, s2 - s1 - 1);
      f.message = rest.substr(s2 + 1);
      model->findings.push_back(std::move(f));
    } else {
      return false;  // unknown record: treat the whole cache as corrupt
    }
  }
  return false;  // ran out of input before "end"
}

ModelCache ModelCache::Load(const std::string& path) {
  ModelCache cache;
  if (path.empty()) return cache;
  std::ifstream in(path, std::ios::binary);
  if (!in) return cache;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  size_t pos = 0;
  if (NextLine(text, &pos) != kMagic) return cache;
  while (pos < text.size()) {
    FileModel model;
    if (!DeserializeFileModel(text, &pos, &model)) {
      // Corrupt tail: keep nothing — a partial cache risks stale findings.
      cache.entries_.clear();
      return cache;
    }
    const std::string rel = model.rel;
    cache.entries_[rel] = std::move(model);
  }
  return cache;
}

const FileModel* ModelCache::Lookup(const std::string& rel,
                                    uint64_t fingerprint) const {
  const auto it = entries_.find(rel);
  if (it == entries_.end() || it->second.fingerprint != fingerprint) {
    return nullptr;
  }
  return &it->second;
}

bool ModelCache::Store(const std::vector<FileModel>& models,
                       const std::string& path) {
  if (path.empty()) return true;
  entries_.clear();
  std::string out = kMagic;
  out += "\n";
  for (const FileModel& model : models) {
    SerializeFileModel(model, &out);
    entries_[model.rel] = model;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << out;
  return file.good();
}

}  // namespace lint
}  // namespace dpaudit
