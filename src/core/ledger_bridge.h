// Converts core experiment types into the plain-data rows of the privacy-
// audit ledger (obs/audit_ledger.h) and emits them. The obs layer sits below
// core and cannot see DiExperimentConfig/DiTrialResult/DiExperimentSummary,
// so this bridge is where those types are flattened into ledger rows.
//
// Call sites (all gated on obs::AuditLedgerEnabled(), all at sequential
// points of the run so row order is deterministic):
//   - the sweep scheduler's sequential results loop emits one experiment
//     block per cell (RunDiExperiment is a one-cell sweep);
//   - AuditExperiment emits one audit row per report it produces.

#ifndef DPAUDIT_CORE_LEDGER_BRIDGE_H_
#define DPAUDIT_CORE_LEDGER_BRIDGE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/auditor.h"
#include "core/experiment.h"
#include "core/trace.h"
#include "obs/audit_ledger.h"

namespace dpaudit {

/// Whether the privacy-audit ledger is enabled (DPAUDIT_AUDIT_LEDGER).
/// Re-exported from obs so the rest of core gates on the bridge instead of
/// reaching into obs/audit_ledger.h directly — that header is restricted to
/// its bridge files (see tools/lint/layers.txt).
inline bool LedgerEnabled() { return obs::AuditLedgerEnabled(); }

/// Flattens the first `repetitions` trials of one repeated experiment into
/// a ledger experiment block. `trials` may hold MORE than `repetitions`
/// entries; the extras are not emitted. The cumulative LLR and the per-step
/// RDP contribution are derived here, in repetition/step order, so a
/// replayed trace reproduces them bit-identically.
obs::LedgerExperiment BuildLedgerExperiment(
    const TraceFingerprint& fingerprint, const DiExperimentConfig& config,
    const Dataset& d, const Dataset& d_prime, const Dataset* test_set,
    const std::vector<DiTrialResult>& trials, size_t repetitions);

/// BuildLedgerExperiment over every trial + AppendLedgerExperiment. A no-op
/// when the ledger is disabled.
void EmitLedgerExperiment(const TraceFingerprint& fingerprint,
                          const DiExperimentConfig& config, const Dataset& d,
                          const Dataset& d_prime, const Dataset* test_set,
                          const std::vector<DiTrialResult>& trials);

/// Emits the audit row for one AuditExperiment call (no-op when the ledger
/// is disabled). The row carries the same content digest the experiment
/// block of these trials carries, which is what lets it name the experiment
/// it audited without core handing obs any core type.
void EmitLedgerAudit(const DiExperimentSummary& summary, double delta,
                     const AuditReport& report);

/// Emits the error row for a sweep cell whose retry budget ran out: the
/// requested vs completed repetition counts, how many trials exhausted the
/// budget, and the first failure's message. Emitted right after the cell's
/// (partial) experiment block by the sweep scheduler's results loop.
void EmitLedgerError(const TraceFingerprint& fingerprint,
                     size_t repetitions_requested,
                     size_t repetitions_completed, size_t trials_failed,
                     const std::string& message);

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_LEDGER_BRIDGE_H_
