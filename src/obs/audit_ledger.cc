#include "obs/audit_ledger.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>

#include "obs/json_util.h"
#include "util/logging.h"

namespace dpaudit {
namespace obs {

namespace internal {
std::atomic<bool> g_ledger_enabled{false};
}  // namespace internal

// ---------------------------------------------------------------------------
// Content digest.

void LedgerDigest::AddU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
}

void LedgerDigest::AddF64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  AddU64(bits);
}

std::string LedgerDigest::Hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

// ---------------------------------------------------------------------------
// Serialization.

namespace {

const char* BoolName(bool b) { return b ? "true" : "false"; }

}  // namespace

void WriteLedgerManifest(std::ostream& os, const LedgerManifest& manifest) {
  os << "{\"row\":\"manifest\",\"schema_version\":" << manifest.schema_version
     << ",\"binary\":\"" << JsonEscape(manifest.binary) << "\",\"simd\":\""
     << JsonEscape(manifest.simd) << "\",\"threads\":" << manifest.threads
     << ",\"batch_lanes\":" << manifest.batch_lanes << ",\"git_commit\":\""
     << JsonEscape(manifest.git_commit) << "\"}\n";
}

void WriteLedgerExperiment(std::ostream& os,
                           const LedgerExperiment& experiment) {
  os << "{\"row\":\"experiment\",\"seq\":" << experiment.seq
     << ",\"fingerprint\":\"" << JsonEscape(experiment.fingerprint)
     << "\",\"digest\":\"" << JsonEscape(experiment.digest)
     << "\",\"seed\":" << experiment.seed
     << ",\"repetitions\":" << experiment.repetitions
     << ",\"steps_per_trial\":" << experiment.steps_per_trial
     << ",\"prior_belief_d\":" << JsonNumber(experiment.prior_belief_d)
     << ",\"epochs\":" << experiment.epochs
     << ",\"learning_rate\":" << JsonNumber(experiment.learning_rate)
     << ",\"clip_norm\":" << JsonNumber(experiment.clip_norm)
     << ",\"noise_multiplier\":" << JsonNumber(experiment.noise_multiplier)
     << ",\"sensitivity_mode\":\"" << JsonEscape(experiment.sensitivity_mode)
     << "\",\"neighbor_mode\":\"" << JsonEscape(experiment.neighbor_mode)
     << "\"";
  if (experiment.sampling_rate != 1.0) {
    os << ",\"sampling_rate\":" << JsonNumber(experiment.sampling_rate);
  }
  os << ",\"dataset_digest_d\":\"" << JsonEscape(experiment.dataset_digest_d)
     << "\",\"dataset_digest_dprime\":\""
     << JsonEscape(experiment.dataset_digest_dprime)
     << "\",\"dataset_digest_test\":\""
     << JsonEscape(experiment.dataset_digest_test) << "\"}\n";
  for (const LedgerTrial& trial : experiment.trials) {
    os << "{\"row\":\"trial\",\"seq\":" << experiment.seq
       << ",\"rep\":" << trial.rep << ",\"trained_on_d\":"
       << BoolName(trial.trained_on_d) << ",\"adversary_says_d\":"
       << BoolName(trial.adversary_says_d) << ",\"final_belief_d\":"
       << JsonNumber(trial.final_belief_d) << ",\"max_belief_d\":"
       << JsonNumber(trial.max_belief_d) << ",\"test_accuracy\":"
       << JsonNumber(trial.test_accuracy) << "}\n";
    for (const LedgerStep& step : trial.steps) {
      os << "{\"row\":\"step\",\"seq\":" << experiment.seq
         << ",\"rep\":" << trial.rep << ",\"step\":" << step.step
         << ",\"clip_norm\":" << JsonNumber(step.clip_norm)
         << ",\"local_sensitivity\":" << JsonNumber(step.local_sensitivity)
         << ",\"sensitivity_used\":" << JsonNumber(step.sensitivity_used)
         << ",\"sigma\":" << JsonNumber(step.sigma)
         << ",\"log_density_d\":" << JsonNumber(step.log_density_d)
         << ",\"log_density_dprime\":" << JsonNumber(step.log_density_dprime)
         << ",\"llr\":" << JsonNumber(step.llr)
         << ",\"belief_d\":" << JsonNumber(step.belief_d)
         << ",\"rdp_eps_alpha2\":" << JsonNumber(step.rdp_eps_alpha2)
         << "}\n";
    }
  }
}

void WriteLedgerAudit(std::ostream& os, const LedgerAudit& audit) {
  os << "{\"row\":\"audit\",\"seq\":" << audit.seq << ",\"digest\":\""
     << JsonEscape(audit.digest) << "\",\"delta\":" << JsonNumber(audit.delta)
     << ",\"epsilon_from_sensitivities\":"
     << JsonNumber(audit.epsilon_from_sensitivities)
     << ",\"epsilon_from_belief\":" << JsonNumber(audit.epsilon_from_belief)
     << ",\"epsilon_from_advantage\":"
     << JsonNumber(audit.epsilon_from_advantage)
     << ",\"advantage\":" << JsonNumber(audit.advantage)
     << ",\"max_belief\":" << JsonNumber(audit.max_belief) << "}\n";
}

void WriteLedgerError(std::ostream& os, const LedgerError& error) {
  os << "{\"row\":\"error\",\"seq\":" << error.seq << ",\"fingerprint\":\""
     << JsonEscape(error.fingerprint) << "\",\"repetitions_requested\":"
     << error.repetitions_requested << ",\"repetitions_completed\":"
     << error.repetitions_completed << ",\"trials_failed\":"
     << error.trials_failed << ",\"message\":\"" << JsonEscape(error.message)
     << "\"}\n";
}

// ---------------------------------------------------------------------------
// Writer.

namespace {

struct LedgerWriterState {
  std::mutex mu;
  LedgerManifest manifest;
  std::string directory;  // created on demand; empty for the test hook
  std::string path;
  std::ofstream out;
  bool opened = false;
  bool failed = false;
  uint64_t next_seq = 0;
};

LedgerWriterState& WriterState() {
  // Leaked intentionally: appends may race process teardown otherwise.
  static LedgerWriterState* state = new LedgerWriterState();
  return *state;
}

/// Opens the sink lazily, writing the manifest as the first row. Returns
/// false (after logging once) when the file cannot be created; subsequent
/// appends are dropped silently. Caller holds state.mu.
bool EnsureOpenLocked(LedgerWriterState& state) {
  if (state.opened) return true;
  if (state.failed) return false;
  if (!state.directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(state.directory, ec);
  }
  state.out.open(state.path, std::ios::out | std::ios::trunc);
  if (!state.out) {
    state.failed = true;
    DPAUDIT_LOG(WARNING) << "audit ledger: cannot open " << state.path
                         << "; ledger rows will be dropped";
    return false;
  }
  state.opened = true;
  WriteLedgerManifest(state.out, state.manifest);
  return true;
}

}  // namespace

void InitAuditLedger(const LedgerManifest& manifest,
                     const std::string& directory) {
  LedgerWriterState& state = WriterState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.manifest = manifest;
  state.directory = directory;
  state.path = directory + "/" + manifest.binary + ".ledger.jsonl";
  state.opened = false;
  state.failed = false;
  state.next_seq = 0;
  internal::g_ledger_enabled.store(true, std::memory_order_relaxed);
}

void AppendLedgerExperiment(LedgerExperiment* experiment) {
  if (!AuditLedgerEnabled()) return;
  LedgerWriterState& state = WriterState();
  std::lock_guard<std::mutex> lock(state.mu);
  experiment->seq = state.next_seq++;
  if (!EnsureOpenLocked(state)) return;
  WriteLedgerExperiment(state.out, *experiment);
  state.out.flush();
}

void AppendLedgerAudit(LedgerAudit* audit) {
  if (!AuditLedgerEnabled()) return;
  LedgerWriterState& state = WriterState();
  std::lock_guard<std::mutex> lock(state.mu);
  audit->seq = state.next_seq++;
  if (!EnsureOpenLocked(state)) return;
  WriteLedgerAudit(state.out, *audit);
  state.out.flush();
}

void AppendLedgerError(LedgerError* error) {
  if (!AuditLedgerEnabled()) return;
  LedgerWriterState& state = WriterState();
  std::lock_guard<std::mutex> lock(state.mu);
  error->seq = state.next_seq++;
  if (!EnsureOpenLocked(state)) return;
  WriteLedgerError(state.out, *error);
  state.out.flush();
}

void FlushAuditLedger() {
  if (!AuditLedgerEnabled()) return;
  LedgerWriterState& state = WriterState();
  std::lock_guard<std::mutex> lock(state.mu);
  internal::g_ledger_enabled.store(false, std::memory_order_relaxed);
  if (state.opened) {
    state.out.flush();
    state.out.close();
    state.opened = false;
  }
}

void OpenAuditLedgerForTest(const std::string& path) {
  LedgerWriterState& state = WriterState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.manifest = LedgerManifest{};
  state.manifest.binary = "test";
  state.manifest.simd = "test";
  state.manifest.threads = 1;
  state.manifest.batch_lanes = 0;
  state.manifest.git_commit = "test";
  state.directory.clear();
  state.path = path;
  state.opened = false;
  state.failed = false;
  state.next_seq = 0;
  internal::g_ledger_enabled.store(true, std::memory_order_relaxed);
}

void CloseAuditLedgerForTest() {
  LedgerWriterState& state = WriterState();
  std::lock_guard<std::mutex> lock(state.mu);
  internal::g_ledger_enabled.store(false, std::memory_order_relaxed);
  if (state.opened) {
    state.out.flush();
    state.out.close();
  }
  state.opened = false;
  state.failed = false;
  state.next_seq = 0;
}

// ---------------------------------------------------------------------------
// Parser.

namespace {

Status LineError(size_t line_no, const std::string& what) {
  return Status::InvalidArgument("ledger line " + std::to_string(line_no) +
                                 ": " + what);
}

Status MissingField(size_t line_no, const char* key) {
  return LineError(line_no,
                   std::string("missing or malformed field \"") + key + "\"");
}

}  // namespace

StatusOr<LedgerFile> ParseLedger(std::istream& in) {
  // Local shorthands so each row parser reads as a field list. Each returns
  // from ParseLedger with a line-numbered error when the field is absent.
#define DPAUDIT_LEDGER_REQ(extract, key, dst)                  \
  do {                                                         \
    if (!extract(line, key, dst)) return MissingField(line_no, key); \
  } while (0)

  LedgerFile file;
  bool have_manifest = false;
  // Structural cursor into the experiment block being filled, if any.
  bool in_experiment = false;
  bool in_trial = false;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) return LineError(line_no, "empty line");
    std::string row;
    if (!JsonExtractString(line, "row", &row)) {
      return MissingField(line_no, "row");
    }
    if (!have_manifest) {
      if (row != "manifest") {
        return LineError(line_no, "first row must be a manifest, got \"" +
                                      row + "\"");
      }
      LedgerManifest& m = file.manifest;
      uint64_t schema = 0;
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "schema_version", &schema);
      if (schema != kLedgerSchemaVersion) {
        return LineError(line_no, "unsupported schema_version " +
                                      std::to_string(schema) + " (expected " +
                                      std::to_string(kLedgerSchemaVersion) +
                                      ")");
      }
      m.schema_version = static_cast<uint32_t>(schema);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "binary", &m.binary);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "simd", &m.simd);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "threads", &m.threads);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "batch_lanes", &m.batch_lanes);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "git_commit", &m.git_commit);
      have_manifest = true;
      continue;
    }
    if (row == "manifest") {
      return LineError(line_no, "duplicate manifest row");
    }
    if (row == "experiment") {
      if (in_experiment) {
        return LineError(line_no,
                         "experiment row before the previous experiment's "
                         "trials completed");
      }
      LedgerExperiment e;
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "seq", &e.seq);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "fingerprint", &e.fingerprint);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "digest", &e.digest);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "seed", &e.seed);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "repetitions", &e.repetitions);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "steps_per_trial",
                         &e.steps_per_trial);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "prior_belief_d",
                         &e.prior_belief_d);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "epochs", &e.epochs);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "learning_rate",
                         &e.learning_rate);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "clip_norm", &e.clip_norm);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "noise_multiplier",
                         &e.noise_multiplier);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "sensitivity_mode",
                         &e.sensitivity_mode);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "neighbor_mode",
                         &e.neighbor_mode);
      JsonExtractNumber(line, "sampling_rate", &e.sampling_rate);  // optional
      DPAUDIT_LEDGER_REQ(JsonExtractString, "dataset_digest_d",
                         &e.dataset_digest_d);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "dataset_digest_dprime",
                         &e.dataset_digest_dprime);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "dataset_digest_test",
                         &e.dataset_digest_test);
      e.trials.reserve(e.repetitions);
      file.experiments.push_back(std::move(e));
      in_experiment = file.experiments.back().repetitions > 0;
      in_trial = false;
      continue;
    }
    if (row == "trial") {
      if (!in_experiment) {
        return LineError(line_no, "trial row outside an experiment block");
      }
      LedgerExperiment& e = file.experiments.back();
      if (in_trial) {
        return LineError(line_no,
                         "trial row before the previous trial's steps "
                         "completed");
      }
      LedgerTrial t;
      uint64_t seq = 0;
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "seq", &seq);
      if (seq != e.seq) {
        return LineError(line_no, "trial row seq " + std::to_string(seq) +
                                      " does not match experiment seq " +
                                      std::to_string(e.seq));
      }
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "rep", &t.rep);
      if (t.rep != e.trials.size()) {
        return LineError(line_no, "trial rows out of order: got rep " +
                                      std::to_string(t.rep) + ", expected " +
                                      std::to_string(e.trials.size()));
      }
      DPAUDIT_LEDGER_REQ(JsonExtractBool, "trained_on_d", &t.trained_on_d);
      DPAUDIT_LEDGER_REQ(JsonExtractBool, "adversary_says_d",
                         &t.adversary_says_d);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "final_belief_d",
                         &t.final_belief_d);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "max_belief_d", &t.max_belief_d);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "test_accuracy",
                         &t.test_accuracy);
      t.steps.reserve(e.steps_per_trial);
      e.trials.push_back(std::move(t));
      in_trial = e.steps_per_trial > 0;
      if (!in_trial && e.trials.size() == e.repetitions) in_experiment = false;
      continue;
    }
    if (row == "step") {
      if (!in_experiment || !in_trial) {
        return LineError(line_no, "step row outside a trial block");
      }
      LedgerExperiment& e = file.experiments.back();
      LedgerTrial& t = e.trials.back();
      LedgerStep s;
      uint64_t seq = 0;
      uint64_t rep = 0;
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "seq", &seq);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "rep", &rep);
      if (seq != e.seq || rep != t.rep) {
        return LineError(line_no, "step row seq/rep does not match the "
                                  "enclosing trial");
      }
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "step", &s.step);
      if (s.step != t.steps.size()) {
        return LineError(line_no, "step rows out of order: got step " +
                                      std::to_string(s.step) + ", expected " +
                                      std::to_string(t.steps.size()));
      }
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "clip_norm", &s.clip_norm);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "local_sensitivity",
                         &s.local_sensitivity);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "sensitivity_used",
                         &s.sensitivity_used);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "sigma", &s.sigma);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "log_density_d",
                         &s.log_density_d);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "log_density_dprime",
                         &s.log_density_dprime);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "llr", &s.llr);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "belief_d", &s.belief_d);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "rdp_eps_alpha2",
                         &s.rdp_eps_alpha2);
      t.steps.push_back(s);
      if (t.steps.size() == e.steps_per_trial) {
        in_trial = false;
        if (e.trials.size() == e.repetitions) in_experiment = false;
      }
      continue;
    }
    if (row == "error") {
      if (in_experiment) {
        return LineError(line_no,
                         "error row inside an unfinished experiment block");
      }
      LedgerError e;
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "seq", &e.seq);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "fingerprint", &e.fingerprint);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "repetitions_requested",
                         &e.repetitions_requested);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "repetitions_completed",
                         &e.repetitions_completed);
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "trials_failed", &e.trials_failed);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "message", &e.message);
      file.errors.push_back(std::move(e));
      continue;
    }
    if (row == "audit") {
      if (in_experiment) {
        return LineError(line_no,
                         "audit row inside an unfinished experiment block");
      }
      LedgerAudit a;
      DPAUDIT_LEDGER_REQ(JsonExtractUint, "seq", &a.seq);
      DPAUDIT_LEDGER_REQ(JsonExtractString, "digest", &a.digest);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "delta", &a.delta);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "epsilon_from_sensitivities",
                         &a.epsilon_from_sensitivities);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "epsilon_from_belief",
                         &a.epsilon_from_belief);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "epsilon_from_advantage",
                         &a.epsilon_from_advantage);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "advantage", &a.advantage);
      DPAUDIT_LEDGER_REQ(JsonExtractNumber, "max_belief", &a.max_belief);
      file.audits.push_back(std::move(a));
      continue;
    }
    return LineError(line_no, "unknown row type \"" + row + "\"");
  }
  if (!have_manifest) {
    return Status::InvalidArgument("ledger is empty: no manifest row");
  }
  if (in_experiment) {
    const LedgerExperiment& e = file.experiments.back();
    return Status::InvalidArgument(
        "ledger truncated after line " + std::to_string(line_no) +
        ": experiment seq " + std::to_string(e.seq) + " has " +
        std::to_string(e.trials.size()) + "/" +
        std::to_string(e.repetitions) + " trials");
  }
  return file;
#undef DPAUDIT_LEDGER_REQ
}

StatusOr<LedgerFile> LoadLedgerFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open ledger file: " + path);
  }
  return ParseLedger(in);
}

// ---------------------------------------------------------------------------
// Diff.

namespace {

/// Compares through the JSON spelling so NaN equals NaN and the tolerance is
/// exactly "same bytes in the file", which is the ledger's parity contract.
bool SameNumber(double a, double b) { return JsonNumber(a) == JsonNumber(b); }

struct DiffReporter {
  std::ostream& os;
  size_t count = 0;

  template <typename T>
  void Field(const std::string& where, const char* key, const T& a,
             const T& b) {
    if (a == b) return;
    ++count;
    os << where << "." << key << ": " << a << " != " << b << "\n";
  }
  void Num(const std::string& where, const char* key, double a, double b) {
    if (SameNumber(a, b)) return;
    ++count;
    os << where << "." << key << ": " << JsonNumber(a) << " != "
       << JsonNumber(b) << "\n";
  }
};

}  // namespace

size_t DiffLedgers(const LedgerFile& a, const LedgerFile& b,
                   std::ostream& report) {
  DiffReporter d{report};
  // Manifest differences are notes, not counted: two builds may legitimately
  // differ in binary/simd/threads while the audit content must not.
  {
    const LedgerManifest& ma = a.manifest;
    const LedgerManifest& mb = b.manifest;
    if (ma.binary != mb.binary || ma.simd != mb.simd ||
        ma.threads != mb.threads || ma.batch_lanes != mb.batch_lanes ||
        ma.git_commit != mb.git_commit ||
        ma.schema_version != mb.schema_version) {
      report << "note: manifests differ (a: binary=" << ma.binary
             << " simd=" << ma.simd << " threads=" << ma.threads
             << " batch_lanes=" << ma.batch_lanes << " commit="
             << ma.git_commit << "; b: binary=" << mb.binary << " simd="
             << mb.simd << " threads=" << mb.threads << " batch_lanes="
             << mb.batch_lanes << " commit=" << mb.git_commit << ")\n";
    }
  }
  if (a.experiments.size() != b.experiments.size()) {
    ++d.count;
    report << "experiment count: " << a.experiments.size() << " != "
           << b.experiments.size() << "\n";
  }
  const size_t ne = std::min(a.experiments.size(), b.experiments.size());
  for (size_t i = 0; i < ne; ++i) {
    const LedgerExperiment& ea = a.experiments[i];
    const LedgerExperiment& eb = b.experiments[i];
    const std::string we = "experiment[" + std::to_string(i) + "]";
    d.Field(we, "seq", ea.seq, eb.seq);
    d.Field(we, "fingerprint", ea.fingerprint, eb.fingerprint);
    d.Field(we, "digest", ea.digest, eb.digest);
    d.Field(we, "seed", ea.seed, eb.seed);
    d.Field(we, "repetitions", ea.repetitions, eb.repetitions);
    d.Field(we, "steps_per_trial", ea.steps_per_trial, eb.steps_per_trial);
    d.Num(we, "prior_belief_d", ea.prior_belief_d, eb.prior_belief_d);
    d.Field(we, "epochs", ea.epochs, eb.epochs);
    d.Num(we, "learning_rate", ea.learning_rate, eb.learning_rate);
    d.Num(we, "clip_norm", ea.clip_norm, eb.clip_norm);
    d.Num(we, "noise_multiplier", ea.noise_multiplier, eb.noise_multiplier);
    d.Field(we, "sensitivity_mode", ea.sensitivity_mode, eb.sensitivity_mode);
    d.Field(we, "neighbor_mode", ea.neighbor_mode, eb.neighbor_mode);
    d.Num(we, "sampling_rate", ea.sampling_rate, eb.sampling_rate);
    d.Field(we, "dataset_digest_d", ea.dataset_digest_d, eb.dataset_digest_d);
    d.Field(we, "dataset_digest_dprime", ea.dataset_digest_dprime,
            eb.dataset_digest_dprime);
    d.Field(we, "dataset_digest_test", ea.dataset_digest_test,
            eb.dataset_digest_test);
    const size_t nt = std::min(ea.trials.size(), eb.trials.size());
    if (ea.trials.size() != eb.trials.size()) {
      ++d.count;
      report << we << " trial count: " << ea.trials.size() << " != "
             << eb.trials.size() << "\n";
    }
    for (size_t r = 0; r < nt; ++r) {
      const LedgerTrial& ta = ea.trials[r];
      const LedgerTrial& tb = eb.trials[r];
      const std::string wt = we + ".trial[" + std::to_string(r) + "]";
      d.Field(wt, "trained_on_d", ta.trained_on_d, tb.trained_on_d);
      d.Field(wt, "adversary_says_d", ta.adversary_says_d,
              tb.adversary_says_d);
      d.Num(wt, "final_belief_d", ta.final_belief_d, tb.final_belief_d);
      d.Num(wt, "max_belief_d", ta.max_belief_d, tb.max_belief_d);
      d.Num(wt, "test_accuracy", ta.test_accuracy, tb.test_accuracy);
      const size_t ns = std::min(ta.steps.size(), tb.steps.size());
      if (ta.steps.size() != tb.steps.size()) {
        ++d.count;
        report << wt << " step count: " << ta.steps.size() << " != "
               << tb.steps.size() << "\n";
      }
      for (size_t s = 0; s < ns; ++s) {
        const LedgerStep& sa = ta.steps[s];
        const LedgerStep& sb = tb.steps[s];
        const std::string ws = wt + ".step[" + std::to_string(s) + "]";
        d.Num(ws, "clip_norm", sa.clip_norm, sb.clip_norm);
        d.Num(ws, "local_sensitivity", sa.local_sensitivity,
              sb.local_sensitivity);
        d.Num(ws, "sensitivity_used", sa.sensitivity_used,
              sb.sensitivity_used);
        d.Num(ws, "sigma", sa.sigma, sb.sigma);
        d.Num(ws, "log_density_d", sa.log_density_d, sb.log_density_d);
        d.Num(ws, "log_density_dprime", sa.log_density_dprime,
              sb.log_density_dprime);
        d.Num(ws, "llr", sa.llr, sb.llr);
        d.Num(ws, "belief_d", sa.belief_d, sb.belief_d);
        d.Num(ws, "rdp_eps_alpha2", sa.rdp_eps_alpha2, sb.rdp_eps_alpha2);
      }
    }
  }
  if (a.errors.size() != b.errors.size()) {
    ++d.count;
    report << "error count: " << a.errors.size() << " != " << b.errors.size()
           << "\n";
  }
  const size_t nerr = std::min(a.errors.size(), b.errors.size());
  for (size_t i = 0; i < nerr; ++i) {
    const LedgerError& ra = a.errors[i];
    const LedgerError& rb = b.errors[i];
    const std::string wr = "error[" + std::to_string(i) + "]";
    d.Field(wr, "seq", ra.seq, rb.seq);
    d.Field(wr, "fingerprint", ra.fingerprint, rb.fingerprint);
    d.Field(wr, "repetitions_requested", ra.repetitions_requested,
            rb.repetitions_requested);
    d.Field(wr, "repetitions_completed", ra.repetitions_completed,
            rb.repetitions_completed);
    d.Field(wr, "trials_failed", ra.trials_failed, rb.trials_failed);
    d.Field(wr, "message", ra.message, rb.message);
  }
  if (a.audits.size() != b.audits.size()) {
    ++d.count;
    report << "audit count: " << a.audits.size() << " != " << b.audits.size()
           << "\n";
  }
  const size_t na = std::min(a.audits.size(), b.audits.size());
  for (size_t i = 0; i < na; ++i) {
    const LedgerAudit& aa = a.audits[i];
    const LedgerAudit& ab = b.audits[i];
    const std::string wa = "audit[" + std::to_string(i) + "]";
    d.Field(wa, "seq", aa.seq, ab.seq);
    d.Field(wa, "digest", aa.digest, ab.digest);
    d.Num(wa, "delta", aa.delta, ab.delta);
    d.Num(wa, "epsilon_from_sensitivities", aa.epsilon_from_sensitivities,
          ab.epsilon_from_sensitivities);
    d.Num(wa, "epsilon_from_belief", aa.epsilon_from_belief,
          ab.epsilon_from_belief);
    d.Num(wa, "epsilon_from_advantage", aa.epsilon_from_advantage,
          ab.epsilon_from_advantage);
    d.Num(wa, "advantage", aa.advantage, ab.advantage);
    d.Num(wa, "max_belief", aa.max_belief, ab.max_belief);
  }
  return d.count;
}

}  // namespace obs
}  // namespace dpaudit
