// The differential-identifiability experiment Exp^DI (Experiment 2) for
// DPSGD, repeated for statistical stability. One trial = initialize weights,
// run DPSGD on the challenger's dataset while A_DI observes every release,
// record the adversary's beliefs and decision plus the per-step record of
// every release. RunDiTrial runs one trial; the sweep scheduler
// (core/sweep_scheduler.h) runs the repetitions, and RunDiExperiment is its
// one-cell case. DiTrialResult is the one in-memory record of a trial: the
// summary, the trace cache, the sweep journal and the ledger all hold it.

#ifndef DPAUDIT_CORE_EXPERIMENT_H_
#define DPAUDIT_CORE_EXPERIMENT_H_

#include <cstdint>
#include <vector>

#include "core/dpsgd.h"
#include "data/dataset.h"
#include "nn/network.h"
#include "util/status.h"

namespace dpaudit {

struct DiExperimentConfig {
  DpSgdConfig dpsgd;
  size_t repetitions = 100;
  uint64_t seed = 42;
  /// When false (paper's counting scheme, Section 6.2) every trial trains on
  /// D and success means beta_k(D) > 0.5; the Gaussian symmetry makes this
  /// equivalent to the two-sided experiment. When true the challenger flips
  /// a fair coin per trial (the literal Experiment 2).
  bool randomize_challenge_bit = false;
  /// Re-draw theta_0 per trial (fresh model instance per repetition, as in
  /// the paper's "trained 250 times").
  bool reinitialize_weights = true;
};

/// One repetition of Experiment 2.
struct DiTrialResult {
  bool trained_on_d = true;       // challenger bit b
  bool adversary_says_d = false;  // adversary output b'
  double final_belief_d = 0.5;    // beta_k(D)
  double max_belief_d = 0.5;      // max_i beta_i(D)
  double test_accuracy = -1.0;    // -1 when not evaluated
  std::vector<double> belief_history;  // beta_0 (prior) .. beta_k
  std::vector<StepRecord> steps;       // one per release

  bool Success() const { return adversary_says_d == trained_on_d; }
};

struct DiExperimentSummary {
  std::vector<DiTrialResult> trials;

  /// Fraction of trials where b' == b.
  double SuccessRate() const;

  /// Empirical Adv^DI (Definition 5): 2 * SuccessRate() - 1.
  double EmpiricalAdvantage() const;

  /// Empirical delta: fraction of trained-on-D trials whose final belief in
  /// D exceeds the bound rho_beta (Section 6.3 / Table 2).
  double EmpiricalDelta(double rho_beta) const;

  /// Final beliefs beta_k(D) over trained-on-D trials (Figure 6).
  std::vector<double> FinalBeliefsInD() const;

  /// Largest belief in D observed across all trials and steps (the beta-hat
  /// of the Section 6.4 epsilon' estimator).
  double MaxBeliefInD() const;

  /// Test accuracies (only for trials where a test set was evaluated).
  std::vector<double> TestAccuracies() const;
};

/// Runs repetition `rep` of the experiment: one weight init, one DPSGD run
/// observed by A_DI, one decision. The result is a pure function of
/// (architecture, d, d_prime, config, rep) — per-trial randomness comes from
/// Rng(config.seed).Split(rep), so it does NOT depend on config.repetitions,
/// on which thread runs the trial, or on how many trials run around it.
/// That independence is what makes flattened sweep scheduling
/// (core/sweep_scheduler.h) and trace prefix reuse (core/trace.h) sound.
/// Overwrites `*trial`. Callers are expected to resolve
/// config.dpsgd.threads (0 means "let RunDpSgd pick") before fanning trials
/// out, so nested parallelism stays within one budget.
Status RunDiTrial(const Network& architecture, const Dataset& d,
                  const Dataset& d_prime, const DiExperimentConfig& config,
                  size_t rep, DiTrialResult* trial,
                  const Dataset* test_set = nullptr);

/// Runs the repeated experiment as a one-cell RunSweep under
/// SweepOptionsFromRuntime() (core/sweep_scheduler.h): the process's
/// --threads, --trace-cache, --checkpoint and --retries apply here exactly
/// as in a multi-cell sweep, with the same ledger emission and
/// retry-then-degrade policy (a trial that fails past the retry budget
/// drops out of the summary; only a cell where every trial fails returns an
/// error). `test_set`, when non-null, is evaluated on every trial's final
/// model (Figure 7). Trials are deterministic given `config.seed` regardless
/// of thread count. With a trace cache configured, a cached recording with
/// at least config.repetitions trials replays bit-identically; a shorter
/// recording replays as a prefix and only the missing repetitions train
/// live (the extended trace is saved back). Cache failures degrade to a
/// live run, never to an error.
StatusOr<DiExperimentSummary> RunDiExperiment(const Network& architecture,
                                              const Dataset& d,
                                              const Dataset& d_prime,
                                              const DiExperimentConfig& config,
                                              const Dataset* test_set =
                                                  nullptr);

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_EXPERIMENT_H_
