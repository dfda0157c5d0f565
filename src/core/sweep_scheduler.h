// Flattened (cell x repetition) scheduling for audit sweeps.
//
// The paper's headline artifacts (Figures 8-10, Table 2) are sweeps: a grid
// of (epsilon, sensitivity-mode) cells, each repeating Exp^DI dozens of
// times. Running the cells sequentially puts a full barrier at every cell
// boundary — the machine idles behind each cell's slowest trial. RunSweep
// instead flattens the whole grid into one task set of trials dispatched
// dynamically on the shared persistent pool (util/thread_pool.h): trials
// from cell N+1 start the moment workers free up, and per-cell setup
// (deferred calibration, trace-cache probing, prefix replay) runs lazily on
// whichever worker reaches the cell first, overlapped with earlier cells'
// trials.
//
// Determinism: trial r of a cell is a pure function of the cell's inputs and
// r (see RunDiTrial), and every trial lands in its own slot of the cell's
// one trial array, so the returned summaries are bit-identical to a serial
// loop of RunDiTrial over every cell and repetition — for any thread count,
// any dispatch order, and any trace-cache state. This is the only path that
// runs repetitions: RunDiExperiment is a one-cell RunSweep.
//
// Crash safety and failure isolation: with
// SweepOptions::checkpoint set, every freshly trained trial is appended to a
// sweep journal (core/sweep_journal.h) the moment it completes, and a
// re-launched sweep replays journaled trials instead of retraining them —
// stdout and ledger bytes are identical to an uninterrupted run. A trial
// that throws (or is failed by fault injection, util/fault_injection.h) is
// retried up to SweepOptions::trial_retries times with jittered backoff; on
// exhaustion the cell degrades to a partial-repetition summary, surfaced in
// SweepStats, the dpaudit_sweep_* metrics, and a ledger `error` row, instead
// of failing the sweep.

#ifndef DPAUDIT_CORE_SWEEP_SCHEDULER_H_
#define DPAUDIT_CORE_SWEEP_SCHEDULER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/status.h"

namespace dpaudit {

class TraceStore;

/// One cell of a sweep grid: which experiment to run, on what data. The
/// pointed-to objects are borrowed and must outlive the RunSweep call.
struct SweepCell {
  const Network* architecture = nullptr;
  const Dataset* d = nullptr;
  const Dataset* d_prime = nullptr;
  const Dataset* test_set = nullptr;  // optional, evaluated per trial

  /// Static part of the experiment config. `repetitions` and `seed` must be
  /// final here: the flattened trial grid is sized (and per-trial seeds are
  /// derived) before `configure` runs.
  DiExperimentConfig config;

  /// Optional deferred setup — typically noise calibration through the RDP
  /// accountant. Runs at most once per cell, on whichever thread reaches the
  /// cell first, overlapped with earlier cells' trials. May adjust anything
  /// in the config except `repetitions` (enforced) and should leave `seed`
  /// alone (changing it forfeits cache hits, not correctness).
  std::function<Status(DiExperimentConfig*)> configure;
};

struct SweepOptions {
  size_t threads = 0;  // 0: DefaultThreadCount()
  /// The step-trace cache (core/trace.h) for every cell, resolved once per
  /// sweep (e.g. TraceStore::FromEnv()); nullptr disables it. The cells'
  /// own config.trace_store is not consulted.
  TraceStore* trace_store = nullptr;
  /// Checkpoint journal path (core/sweep_journal.h); empty disables
  /// checkpointing.
  std::string checkpoint;
  /// How many times a failed trial is re-attempted before it counts as
  /// failed. A cell whose reps partially fail degrades to a partial-
  /// repetition summary instead of erroring the whole sweep; a cell where
  /// every rep fails keeps the historical error behavior.
  size_t trial_retries = 2;
  /// Base backoff between retry attempts, milliseconds, deterministically
  /// jittered per (seed, cell, rep, attempt). 0 retries immediately.
  uint64_t retry_backoff_ms = 10;
  /// Per-cell accounting (replayed/resumed/trained/failed/retried) through
  /// DPAUDIT_LOG. Never touches stdout.
  bool verbose = false;
};

/// Per-cell trial accounting, indexed like the `cells` argument.
struct SweepCellStats {
  size_t replayed = 0;  // from the trace cache
  size_t resumed = 0;   // from the checkpoint journal
  size_t trained = 0;   // trained live this run
  size_t failed = 0;    // exhausted the retry budget
  size_t retried = 0;   // extra attempts beyond each trial's first
};

/// What one sweep did, for logs and telemetry. Mirrored into the metrics
/// registry as dpaudit_sweep_* counters.
struct SweepStats {
  size_t cells = 0;
  size_t trace_full_hits = 0;    // cells replayed entirely from cache
  size_t trace_prefix_hits = 0;  // cached prefix replayed, tail trained
  size_t trace_misses = 0;       // cells trained from scratch (store set)
  size_t trials_replayed = 0;
  size_t trials_trained = 0;
  size_t trials_resumed = 0;  // skipped via the checkpoint journal
  size_t trials_retried = 0;  // retry attempts across all cells
  size_t trials_failed = 0;   // trials that exhausted the retry budget
  size_t cells_degraded = 0;  // cells returned with fewer reps than asked
  std::vector<SweepCellStats> per_cell;
};

/// Runs every cell and returns its summary (or error) in cell order. The
/// summaries are bit-identical to running each cell's repetitions one by one
/// through RunDiTrial — for any thread count, cold or warm cache.
/// `stats`, when non-null, receives the per-sweep cache/trial accounting.
std::vector<StatusOr<DiExperimentSummary>> RunSweep(
    const std::vector<SweepCell>& cells, const SweepOptions& options = {},
    SweepStats* stats = nullptr);

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_SWEEP_SCHEDULER_H_
