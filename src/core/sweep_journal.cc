#include "core/sweep_journal.h"

#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <utility>

#include "core/dpsgd.h"
#include "core/experiment.h"
#include "io/serialization.h"
#include "obs/json_util.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace dpaudit {
namespace {

/// The row digest's FNV-1a offset basis: FNV's 14695981039346656037 with
/// the last digit dropped. Kept only so journals already on disk still
/// verify; a new format would use Fnv1a64's standard basis.
constexpr uint64_t kJournalFnvBasis = 1469598103934665603ull;

/// FNV-1a over the row prefix; 16 lowercase hex chars, matching the ledger's
/// digest width so `sweep status` output reads uniformly.
uint64_t RowDigest(const std::string& row, size_t size) {
  return Fnv1a64(reinterpret_cast<const uint8_t*>(row.data()), size,
                 kJournalFnvBasis);
}

std::string HexDigest(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void AppendNumberArray(const std::string& key,
                       const std::vector<double>& values, std::string* out) {
  out->append(",\"");
  out->append(key);
  out->append("\":[");
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(obs::JsonNumber(values[i]));
  }
  out->push_back(']');
}

bool ParseNumberArray(const std::string& line, const std::string& key,
                      std::vector<double>* out) {
  const std::string needle = "\"" + key + "\":[";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  size_t pos = at + needle.size();
  out->clear();
  while (pos < line.size() && line[pos] != ']') {
    const char* start = line.c_str() + pos;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) return false;
    out->push_back(value);
    pos = static_cast<size_t>(end - line.c_str());
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  return pos < line.size();  // must have stopped on ']'
}

bool ParseStringArray(const std::string& line, const std::string& key,
                      std::vector<std::string>* out) {
  const std::string needle = "\"" + key + "\":[";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  size_t pos = at + needle.size();
  out->clear();
  while (pos < line.size() && line[pos] != ']') {
    if (line[pos] == ',') {
      ++pos;
      continue;
    }
    if (line[pos] != '"') return false;
    std::string value;
    ++pos;
    while (pos < line.size() && line[pos] != '"') {
      char c = line[pos];
      if (c == '\\' && pos + 1 < line.size()) {
        const char next = line[++pos];
        switch (next) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: c = next;  // \" and \\ unescape to themselves
        }
      }
      value.push_back(c);
      ++pos;
    }
    if (pos >= line.size()) return false;
    ++pos;  // closing quote
    out->push_back(std::move(value));
  }
  return pos < line.size();
}

struct CommandLine {
  std::mutex mu;
  bool recorded = false;
  std::string binary;
  std::vector<std::string> args;
};

CommandLine& RecordedCommandLine() {
  static CommandLine cl;
  return cl;
}

constexpr char kDigestNeedle[] = ",\"digest\":\"";

}  // namespace

void RecordCommandLineForJournal(int argc, char* const* argv) {
  CommandLine& cl = RecordedCommandLine();
  std::lock_guard<std::mutex> lock(cl.mu);
  cl.recorded = argc > 0;
  cl.binary = argc > 0 ? argv[0] : "";
  cl.args.clear();
  for (int i = 1; i < argc; ++i) cl.args.emplace_back(argv[i]);
}

std::string EncodeJournalManifestRow(const SweepJournalManifest& manifest) {
  std::string row = "{\"kind\":\"manifest\",\"schema\":";
  row += std::to_string(manifest.schema_version);
  row += ",\"binary\":\"" + obs::JsonEscape(manifest.binary) + "\"";
  row += ",\"args\":[";
  for (size_t i = 0; i < manifest.args.size(); ++i) {
    if (i > 0) row.push_back(',');
    // Appended piecewise: GCC 12 flags `"\"" + std::string` with a false
    // -Wrestrict, which breaks the DPAUDIT_WERROR build.
    row.push_back('"');
    row += obs::JsonEscape(manifest.args[i]);
    row.push_back('"');
  }
  row += "],\"cwd\":\"" + obs::JsonEscape(manifest.cwd) + "\"}";
  return row;
}

std::string EncodeJournalTrialRow(const TraceFingerprint& key, uint64_t rep,
                                  uint64_t seed, const DiTrialResult& trial) {
  std::string row;
  // ~32 bytes per double: generous reserve keeps appends allocation-free.
  row.reserve(256 + 32 * (trial.belief_history.size() +
                          7 * trial.steps.size()));
  row += "{\"kind\":\"trial\",\"fp\":\"" + key.ToHex() + "\"";
  row += ",\"rep\":" + std::to_string(rep);
  row += ",\"seed\":" + std::to_string(seed);
  row += std::string(",\"on_d\":") + (trial.trained_on_d ? "true" : "false");
  row += std::string(",\"says_d\":") +
         (trial.adversary_says_d ? "true" : "false");
  row += ",\"final\":" + obs::JsonNumber(trial.final_belief_d);
  row += ",\"max\":" + obs::JsonNumber(trial.max_belief_d);
  row += ",\"acc\":" + obs::JsonNumber(trial.test_accuracy);
  AppendNumberArray("beliefs", trial.belief_history, &row);
  // Steps flattened 7-wide in declaration order; the decoder re-folds.
  std::vector<double> flat;
  flat.reserve(7 * trial.steps.size());
  for (const StepRecord& s : trial.steps) {
    flat.push_back(s.clip_norm);
    flat.push_back(s.local_sensitivity);
    flat.push_back(s.sensitivity_used);
    flat.push_back(s.sigma);
    flat.push_back(s.log_density_d);
    flat.push_back(s.log_density_dprime);
    flat.push_back(s.belief_d);
  }
  AppendNumberArray("steps", flat, &row);
  row += kDigestNeedle;
  row += HexDigest(RowDigest(row, row.size()));
  row += "\"}";
  return row;
}

bool DecodeJournalTrialRow(const std::string& line, std::string* fp_hex,
                           uint64_t* rep, uint64_t* seed,
                           DiTrialResult* trial) {
  const size_t digest_at = line.rfind(kDigestNeedle);
  if (digest_at == std::string::npos) return false;
  std::string digest;
  if (!obs::JsonExtractString(line.substr(digest_at), "digest", &digest)) {
    return false;
  }
  const size_t covered = digest_at + sizeof(kDigestNeedle) - 1;
  if (digest != HexDigest(RowDigest(line, covered))) return false;
  if (!obs::JsonExtractString(line, "fp", fp_hex) ||
      !obs::JsonExtractUint(line, "rep", rep) ||
      !obs::JsonExtractUint(line, "seed", seed) ||
      !obs::JsonExtractBool(line, "on_d", &trial->trained_on_d) ||
      !obs::JsonExtractBool(line, "says_d", &trial->adversary_says_d) ||
      !obs::JsonExtractNumber(line, "final", &trial->final_belief_d) ||
      !obs::JsonExtractNumber(line, "max", &trial->max_belief_d) ||
      !obs::JsonExtractNumber(line, "acc", &trial->test_accuracy) ||
      !ParseNumberArray(line, "beliefs", &trial->belief_history)) {
    return false;
  }
  std::vector<double> flat;
  if (!ParseNumberArray(line, "steps", &flat) || flat.size() % 7 != 0) {
    return false;
  }
  trial->steps.resize(flat.size() / 7);
  for (size_t i = 0; i < trial->steps.size(); ++i) {
    StepRecord& s = trial->steps[i];
    s.clip_norm = flat[7 * i + 0];
    s.local_sensitivity = flat[7 * i + 1];
    s.sensitivity_used = flat[7 * i + 2];
    s.sigma = flat[7 * i + 3];
    s.log_density_d = flat[7 * i + 4];
    s.log_density_dprime = flat[7 * i + 5];
    s.belief_d = flat[7 * i + 6];
  }
  return true;
}

StatusOr<LoadedSweepJournal> LoadSweepJournal(const std::string& path) {
  StatusOr<AppendLogContents> contents = ReadLogLines(path);
  if (!contents.ok()) return contents.status();
  LoadedSweepJournal loaded;
  loaded.torn_tail = contents->torn_tail;
  loaded.valid_bytes = contents->valid_bytes;
  for (const std::string& line : contents->lines) {
    std::string kind;
    if (!obs::JsonExtractString(line, "kind", &kind)) {
      ++loaded.dropped_rows;
      continue;
    }
    if (kind == "manifest") {
      uint64_t schema = 0;
      obs::JsonExtractUint(line, "schema", &schema);
      loaded.manifest.schema_version = static_cast<uint32_t>(schema);
      obs::JsonExtractString(line, "binary", &loaded.manifest.binary);
      obs::JsonExtractString(line, "cwd", &loaded.manifest.cwd);
      ParseStringArray(line, "args", &loaded.manifest.args);
      loaded.has_manifest = true;
      continue;
    }
    if (kind != "trial") {
      ++loaded.dropped_rows;
      continue;
    }
    std::string fp_hex;
    uint64_t rep = 0;
    uint64_t seed = 0;
    DiTrialResult trial;
    if (!DecodeJournalTrialRow(line, &fp_hex, &rep, &seed, &trial)) {
      ++loaded.dropped_rows;
      continue;
    }
    loaded.trials[fp_hex][rep] = std::move(trial);
    ++loaded.trial_rows;
  }
  return loaded;
}

StatusOr<std::unique_ptr<SweepJournal>> SweepJournal::Open(
    const std::string& path) {
  std::unique_ptr<SweepJournal> journal(new SweepJournal());
  journal->path_ = path;
  StatusOr<LoadedSweepJournal> loaded = LoadSweepJournal(path);
  long long truncate_to = -1;
  if (loaded.ok()) {
    journal->loaded_ = std::move(*loaded);
    if (journal->loaded_.torn_tail) {
      DPAUDIT_LOG(WARNING)
          << "sweep journal " << path << " has a torn final line "
          << "(crash signature); truncating to "
          << journal->loaded_.valid_bytes << " bytes and resuming";
      truncate_to = journal->loaded_.valid_bytes;
    }
    if (journal->loaded_.dropped_rows > 0) {
      DPAUDIT_LOG(WARNING) << "sweep journal " << path << ": skipped "
                           << journal->loaded_.dropped_rows
                           << " corrupt row(s)";
    }
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }
  DPAUDIT_RETURN_IF_ERROR(journal->log_.Open(path, truncate_to));
  if (journal->loaded_.valid_bytes == 0 && !journal->loaded_.has_manifest) {
    SweepJournalManifest manifest;
    {
      CommandLine& cl = RecordedCommandLine();
      std::lock_guard<std::mutex> lock(cl.mu);
      manifest.binary = cl.binary;
      manifest.args = cl.args;
    }
    std::error_code ec;
    manifest.cwd = std::filesystem::current_path(ec).string();
    DPAUDIT_RETURN_IF_ERROR(
        journal->log_.Append(EncodeJournalManifestRow(manifest)));
    journal->loaded_.manifest = std::move(manifest);
    journal->loaded_.has_manifest = true;
  }
  return journal;
}

bool SweepJournal::Take(const TraceFingerprint& key, uint64_t rep,
                        DiTrialResult* out) {
  const std::string fp_hex = key.ToHex();
  std::lock_guard<std::mutex> lock(take_mu_);
  const auto taken = taken_.find(fp_hex);
  if (taken != taken_.end()) {
    const auto by_rep = taken->second.find(rep);
    if (by_rep != taken->second.end()) {
      *out = *by_rep->second;
      return true;
    }
  }
  const auto by_fp = loaded_.trials.find(fp_hex);
  if (by_fp == loaded_.trials.end()) return false;
  const auto by_rep = by_fp->second.find(rep);
  if (by_rep == by_fp->second.end()) return false;
  *out = std::move(by_rep->second);
  by_fp->second.erase(by_rep);
  taken_[fp_hex][rep] = out;
  return true;
}

void SweepJournal::AppendTrial(const TraceFingerprint& key, uint64_t rep,
                               uint64_t seed, const DiTrialResult& trial) {
  if (append_broken_.load(std::memory_order_relaxed)) return;
  Status status = Status::Ok();
  if (fault::FailJournalWrite()) {
    status = Status::Internal("injected journal write failure");
  } else {
    status = log_.Append(EncodeJournalTrialRow(key, rep, seed, trial));
  }
  if (!status.ok()) {
    // Journaling is best-effort: losing it costs crash-safety, not results.
    // Disable after the first failure so a full disk does not log per trial.
    if (!append_broken_.exchange(true, std::memory_order_relaxed)) {
      DPAUDIT_LOG(WARNING) << "sweep journal disabled: " << status.message();
    }
    return;
  }
  fault::MaybeAbortAfterJournalAppend();
}

}  // namespace dpaudit
