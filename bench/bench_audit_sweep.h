// Shared sweep for Figures 8-10: train models at increasing bounded-DP
// epsilon with Delta f in {LS, GS} and audit each with the three epsilon'
// estimators of Section 6.4.
//
// The grid runs through core/sweep_scheduler: every (task, epsilon, mode)
// cell's repetitions are flattened into ONE dynamically dispatched task set
// on the shared persistent pool, with per-cell calibration deferred onto
// the workers and the runtime's sweep policy (SweepOptionsFromRuntime)
// resolved once per sweep. Rows come back in grid order and are
// bit-identical for any thread count, cold or warm cache.

#ifndef DPAUDIT_BENCH_BENCH_AUDIT_SWEEP_H_
#define DPAUDIT_BENCH_BENCH_AUDIT_SWEEP_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/auditor.h"
#include "core/sweep_scheduler.h"
#include "dp/privacy_params.h"

namespace dpaudit {
namespace bench {

struct AuditSweepRow {
  std::string dataset;
  double target_epsilon;
  std::string sensitivity;  // "LS" or "GS"
  AuditReport report;
  double advantage = 0.0;   // empirical Adv^DI,Gau behind the Fig. 10 row
  size_t repetitions = 0;
  size_t wins = 0;          // successful trials, for confidence intervals
};

/// Epsilon grid per task: the paper uses 0.08 (MNIST) / 0.12 (Purchase),
/// then 1.1, 2.2, 4.6 for both.
inline std::vector<double> EpsilonGridFor(const Task& task) {
  if (task.name == "MNIST") return {0.08, 1.1, 2.2, 4.6};
  return {0.12, 1.1, 2.2, 4.6};
}

/// Audits one cell's summary into its sweep row.
inline AuditSweepRow AuditCell(const Task& task, double epsilon,
                               SensitivityMode sensitivity,
                               const DiExperimentSummary& summary) {
  auto report = [&] {
    DPAUDIT_SPAN("audit");
    return AuditExperiment(summary, task.delta);
  }();
  DPAUDIT_CHECK_OK(report.status());
  AuditSweepRow row{task.name, epsilon, SensitivityModeToString(sensitivity),
                    *report};
  row.advantage = summary.EmpiricalAdvantage();
  row.repetitions = summary.trials.size();
  for (const DiTrialResult& trial : summary.trials) {
    if (trial.Success()) ++row.wins;
  }
  return row;
}

/// Runs the audit sweep for several tasks as ONE flattened grid (so the
/// last cells of task i overlap the first cells of task i+1) and returns
/// the rows per task, in task order. `reps_override` (0 = default) sets the
/// per-cell repetitions; the advantage-based Figure 10 needs more than the
/// belief/sensitivity estimators because a success-rate difference carries
/// ~1/sqrt(R) noise.
inline std::vector<std::vector<AuditSweepRow>> RunAuditSweeps(
    const BenchParams& params, const std::vector<const Task*>& tasks,
    size_t reps_override = 0) {
  DPAUDIT_SPAN("audit_sweep");
  struct CellLabel {
    size_t task_index;
    double epsilon;
    SensitivityMode mode;
  };
  std::vector<CellLabel> labels;
  std::vector<SweepCell> cells;
  const size_t reps =
      reps_override > 0 ? reps_override : std::max<size_t>(8, params.reps / 2);
  for (size_t t = 0; t < tasks.size(); ++t) {
    const Task& task = *tasks[t];
    for (double epsilon : EpsilonGridFor(task)) {
      for (SensitivityMode sensitivity :
           {SensitivityMode::kLocalHat, SensitivityMode::kGlobal}) {
        SweepCell cell;
        cell.architecture = &task.architecture;
        cell.d = &task.d;
        cell.d_prime = &task.d_prime_bounded;
        // The sweep spans 8 (epsilon, mode) cells per task; halve the
        // per-cell repetitions by default to keep the audit figures
        // affordable.
        cell.config.repetitions = reps;
        cell.config.seed = params.seed;
        // Noise calibration through the RDP accountant is deferred so it
        // runs on a worker, overlapped with earlier cells' trials.
        cell.configure = [&params, &task, epsilon,
                          sensitivity](DiExperimentConfig* config) {
          DPAUDIT_SPAN("calibration");
          DiExperimentConfig base = MakeScenarioConfig(
              params, task, epsilon, sensitivity, NeighborMode::kBounded);
          base.repetitions = config->repetitions;
          *config = base;
          return Status::Ok();
        };
        labels.push_back({t, epsilon, sensitivity});
        cells.push_back(std::move(cell));
      }
    }
  }

  // The runtime's sweep policy: with --trace-cache set, each grid cell
  // trains once and every later sweep (fig08/fig09 share cells; fig10
  // extends their recordings to its larger repetition count) replays the
  // recorded trials bit-identically; --checkpoint makes a killed sweep
  // resumable, and failed trials are retried before a cell degrades.
  std::vector<StatusOr<DiExperimentSummary>> summaries =
      RunSweep(cells, SweepOptionsFromRuntime());

  std::vector<std::vector<AuditSweepRow>> rows_per_task(tasks.size());
  for (size_t i = 0; i < summaries.size(); ++i) {
    DPAUDIT_CHECK_OK(summaries[i].status());
    const CellLabel& label = labels[i];
    rows_per_task[label.task_index].push_back(
        AuditCell(*tasks[label.task_index], label.epsilon, label.mode,
                  *summaries[i]));
  }
  return rows_per_task;
}

/// Single-task convenience wrapper (tests, callers with one task).
inline std::vector<AuditSweepRow> RunAuditSweep(const BenchParams& params,
                                                const Task& task,
                                                size_t reps_override = 0) {
  return std::move(RunAuditSweeps(params, {&task}, reps_override).front());
}

}  // namespace bench
}  // namespace dpaudit

#endif  // DPAUDIT_BENCH_BENCH_AUDIT_SWEEP_H_
