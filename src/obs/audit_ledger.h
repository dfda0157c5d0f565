// Privacy-audit ledger: an append-only, per-trial record of what the DP
// mechanism actually did, streamed to `<binary>.ledger.jsonl` next to the
// other telemetry exports.
//
// The paper's auditing claim is that epsilon can be re-derived from the
// observables of a run — per-step noise sigma, clip norm C, the observed
// local sensitivity, and the adversary's posterior belief trajectory. The
// ledger makes those observables a durable artifact: for every repeated
// experiment it records a run manifest (schema version, build info), one
// `experiment` row (config fingerprint, seed, mechanism parameters, dataset
// digests, a content digest of the trial rows), then per repetition a
// `trial` row and per mechanism invocation a `step` row, and finally an
// `audit` row with the three epsilon' estimates the in-process auditor
// reported. `dpaudit_cli ledger check` recomputes all three estimators from
// the rows alone and verifies them against the audit rows.
//
// Invariants (mirroring spans/metrics):
//   - disabled (the default): every emission site costs exactly one relaxed
//     atomic load; nothing is allocated or written;
//   - experiment stdout is byte-identical with the ledger on or off — the
//     ledger writes only to its own file;
//   - deterministic bytes: rows derive from trial observables only (never
//     from thread counts, dispatch order, or cache state), doubles print via
//     %.17g, and emission happens at sequential points of the run — so a
//     trace-cache replayed run writes a ledger byte-identical to the cold
//     run that recorded it. Replay parity is itself a check.
//
// Layering: obs sits below core, so the row structs here are plain data;
// core/ledger_bridge.h converts core types into them, and the epsilon'
// recomputation lives in core/ledger_verify.h.

#ifndef DPAUDIT_OBS_AUDIT_LEDGER_H_
#define DPAUDIT_OBS_AUDIT_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.h"

namespace dpaudit {
namespace obs {

/// Bump when row fields or their meaning change; `check` refuses unknown
/// versions rather than mis-verifying.
inline constexpr uint32_t kLedgerSchemaVersion = 1;

namespace internal {
extern std::atomic<bool> g_ledger_enabled;
}  // namespace internal

/// The single branch every emission site is gated on.
inline bool AuditLedgerEnabled() {
  return internal::g_ledger_enabled.load(std::memory_order_relaxed);
}

/// One DP mechanism invocation (one DPSGD release) as the trainer and the
/// adversary observed it.
struct LedgerStep {
  uint64_t step = 0;               // 0-based release index within the trial
  double clip_norm = 0.0;          // C_i in effect at this step
  double local_sensitivity = 0.0;  // ||S_D - S_D'|| observed at this step
  double sensitivity_used = 0.0;   // Delta f_i that scaled sigma
  double sigma = 0.0;              // noise std (sum space)
  double log_density_d = 0.0;      // log Pr[M(S_D) = r_i]
  double log_density_dprime = 0.0; // log Pr[M(S_D') = r_i]
  double llr = 0.0;                // cumulative LLR through this step
  double belief_d = 0.5;           // beta_i(D) after this release
  double rdp_eps_alpha2 = 0.0;     // this step's Gaussian RDP at alpha = 2
};

/// This step's Renyi-DP contribution at the reference order alpha = 2:
/// eps_2 = alpha / (2 z^2) with z = sigma / LS — zero when the hypotheses
/// were indistinguishable (LS = 0) or no noise context exists. Defined once
/// here so the emitter and `check` round identically.
inline double LedgerRdpAlpha2(double sigma, double local_sensitivity) {
  if (!(sigma > 0.0) || !(local_sensitivity > 0.0)) return 0.0;
  const double z = sigma / local_sensitivity;
  return 1.0 / (z * z);
}

/// One repetition of Experiment 2.
struct LedgerTrial {
  uint64_t rep = 0;
  bool trained_on_d = true;       // challenger bit b
  bool adversary_says_d = false;  // adversary output b'
  double final_belief_d = 0.5;
  double max_belief_d = 0.5;
  double test_accuracy = -1.0;  // -1 when no test set was evaluated
  std::vector<LedgerStep> steps;
};

/// One repeated experiment (a sweep cell): the frame the trial/step rows
/// hang off. `digest` is the order-sensitive content digest of the trial
/// observables (LedgerDigest below); audit rows link back through it.
struct LedgerExperiment {
  uint64_t seq = 0;         // emission order within the run (writer-assigned)
  std::string fingerprint;  // trace-cache content fingerprint, 32 hex chars
  std::string digest;       // LedgerDigest of the trials, 16 hex chars
  uint64_t seed = 0;
  uint64_t repetitions = 0;
  uint64_t steps_per_trial = 0;
  double prior_belief_d = 0.5;  // beta_0, the adversary's prior
  // Mechanism parameters the estimators and a human reader need; everything
  // else about the scenario is pinned by `fingerprint`.
  uint64_t epochs = 0;
  double learning_rate = 0.0;
  double clip_norm = 0.0;
  double noise_multiplier = 0.0;
  std::string sensitivity_mode;  // "LS" / "GS"
  std::string neighbor_mode;     // "bounded" / "unbounded"
  // Poisson sampling rate q. Written only when q != 1, so batch-mode rows
  // keep their bytes; a row without it (every older ledger) reads as 1.
  double sampling_rate = 1.0;
  std::string dataset_digest_d;       // 16 hex chars
  std::string dataset_digest_dprime;  // 16 hex chars
  std::string dataset_digest_test;    // "" when no test set was evaluated
  std::vector<LedgerTrial> trials;
};

/// The in-process auditor's verdict over one experiment's summary.
struct LedgerAudit {
  uint64_t seq = 0;
  std::string digest;  // LedgerDigest of the audited experiment's trials
  double delta = 0.0;
  double epsilon_from_sensitivities = 0.0;
  double epsilon_from_belief = 0.0;
  double epsilon_from_advantage = 0.0;  // +Infinity when every trial won
  double advantage = 0.0;               // empirical Adv^DI behind estimator 3
  double max_belief = 0.0;              // beta-hat behind estimator 2
};

/// A sweep cell whose retry budget ran out: the experiment row (if any) holds
/// only the repetitions that succeeded, and this row records the shortfall so
/// a consumer can tell a deliberately small cell from a degraded one.
struct LedgerError {
  uint64_t seq = 0;
  std::string fingerprint;  // trace-cache fingerprint of the degraded cell
  uint64_t repetitions_requested = 0;
  uint64_t repetitions_completed = 0;
  uint64_t trials_failed = 0;  // repetitions that exhausted the retry budget
  std::string message;         // first failure's status message
};

/// First row of every ledger file.
struct LedgerManifest {
  uint32_t schema_version = kLedgerSchemaVersion;
  std::string binary;
  std::string simd;
  uint64_t threads = 0;
  uint64_t batch_lanes = 0;
  std::string git_commit;
};

/// A fully parsed `<binary>.ledger.jsonl`.
struct LedgerFile {
  LedgerManifest manifest;
  std::vector<LedgerExperiment> experiments;
  std::vector<LedgerAudit> audits;
  std::vector<LedgerError> errors;
};

/// Order-sensitive FNV-1a content digest of trial observables. Both the
/// emitter (from trial traces) and the auditor (from a DiExperimentSummary)
/// feed trials through AddTrial in repetition order; `check` recomputes the
/// digest from parsed rows the same way, so the three agree byte-for-byte
/// exactly when the underlying observables do.
class LedgerDigest {
 public:
  /// Hashes one trial straight from its step rows. `Trial` is any type with
  /// LedgerTrial's outcome fields and a `steps` range whose elements carry
  /// `.sigma` and `.local_sensitivity`: LedgerTrial and core's DiTrialResult.
  template <typename Trial>
  void AddTrial(const Trial& trial) {
    AddU64(trial.trained_on_d ? 1 : 0);
    AddU64(trial.adversary_says_d ? 1 : 0);
    AddF64(trial.final_belief_d);
    AddF64(trial.max_belief_d);
    AddF64(trial.test_accuracy);
    AddU64(trial.steps.size());
    for (const auto& step : trial.steps) AddF64(step.sigma);
    AddU64(trial.steps.size());
    for (const auto& step : trial.steps) AddF64(step.local_sensitivity);
  }

  /// 16 lowercase hex characters.
  std::string Hex() const;

 private:
  void Byte(uint8_t b) { hash_ = (hash_ ^ b) * 0x100000001b3ULL; }
  void AddU64(uint64_t v);
  void AddF64(double v);  // IEEE-754 bit pattern, so -0.0 != 0.0

  uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
};

// ---------------------------------------------------------------------------
// Writer. Lifecycle is driven by obs/telemetry: InitTelemetry configures and
// enables the ledger, FlushTelemetry closes it. The output file is opened
// lazily on the first append (an enabled run that never emits an experiment
// writes no ledger file) with the manifest as its first row.

/// Configures the ledger sink and flips the enabled flag. `directory` is
/// created on demand at first append; the file is
/// `<directory>/<manifest.binary>.ledger.jsonl`.
void InitAuditLedger(const LedgerManifest& manifest,
                     const std::string& directory);

/// Flushes and closes the sink (idempotent; no-op when disabled). Appends
/// after the flush are dropped.
void FlushAuditLedger();

/// Appends one experiment block (experiment row, then trial/step rows in
/// order). Assigns and returns the row's `seq`. Thread-safe, but callers
/// emit from sequential points of the run so row order is deterministic.
void AppendLedgerExperiment(LedgerExperiment* experiment);

/// Appends one audit row; assigns `seq` from the same counter.
void AppendLedgerAudit(LedgerAudit* audit);

/// Appends one error row (degraded sweep cell); assigns `seq` likewise.
void AppendLedgerError(LedgerError* error);

/// Test hooks: route the ledger to an explicit path (Open enables, Close
/// flushes, disables, and resets the seq counter so consecutive tests see
/// identical bytes).
void OpenAuditLedgerForTest(const std::string& path);
void CloseAuditLedgerForTest();

// ---------------------------------------------------------------------------
// Serialization (exposed for tests; the writer uses these internally).

void WriteLedgerManifest(std::ostream& os, const LedgerManifest& manifest);
void WriteLedgerExperiment(std::ostream& os,
                           const LedgerExperiment& experiment);
void WriteLedgerAudit(std::ostream& os, const LedgerAudit& audit);
void WriteLedgerError(std::ostream& os, const LedgerError& error);

/// Strict parser: the first row must be a manifest with a supported schema
/// version; trial/step rows must arrive in order under their experiment row
/// and their counts must match the declared repetitions/steps_per_trial.
/// Truncated or malformed input fails with InvalidArgument naming the line.
StatusOr<LedgerFile> ParseLedger(std::istream& in);
StatusOr<LedgerFile> LoadLedgerFile(const std::string& path);

/// Field-by-field comparison for cross-run regression detection. Reports
/// every difference to `report` and returns the number of differing
/// experiment/trial/step/audit fields; manifest differences (binary, build
/// info) are reported as notes but not counted — two machines legitimately
/// differ there while the audit content must not.
size_t DiffLedgers(const LedgerFile& a, const LedgerFile& b,
                   std::ostream& report);

}  // namespace obs
}  // namespace dpaudit

#endif  // DPAUDIT_OBS_AUDIT_LEDGER_H_
