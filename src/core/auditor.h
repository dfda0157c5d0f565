// Auditing DPSGD (Section 6.4): three estimators of the empirical privacy
// loss epsilon' for a trained model, computable from the quantities the
// experiment harness records.
//
//   1. From per-step local sensitivities: the noise actually applied, sigma,
//      corresponds to an effective per-step noise multiplier
//      z_i = sigma_i / LS_i; RDP-composing those gives epsilon' (Figure 8).
//   2. From posterior beliefs: epsilon' = logit(beta-hat) for the maximal
//      observed belief beta-hat (inverse of Theorem 1 / Eq. 10, Figure 9).
//   3. From the empirical advantage: epsilon' via the inverse of Theorem 2
//      (Eq. 15, Figure 10).

#ifndef DPAUDIT_CORE_AUDITOR_H_
#define DPAUDIT_CORE_AUDITOR_H_

#include <vector>

#include "core/experiment.h"
#include "util/status.h"

namespace dpaudit {

/// epsilon' from one trial's per-step (sigma_i, LS_i) pairs: builds a
/// heterogeneous RDP accountant with per-step noise multipliers
/// sigma_i / LS_i and converts at the given delta. Steps whose LS_i is zero
/// contribute nothing (the two hypotheses were indistinguishable at that
/// step). Each step is priced as an unsubsampled Gaussian, so for sampling
/// rates q < 1 this is an upper bound that ignores amplification.
StatusOr<double> EpsilonFromSensitivities(const std::vector<StepRecord>& steps,
                                          double delta);

/// Averaged over many trials: per step, uses that trial's sigma and LS.
/// Returns the mean epsilon' across trials (Figure 8 plots this per target
/// epsilon).
StatusOr<double> EpsilonFromSensitivities(const DiExperimentSummary& summary,
                                          double delta);

/// epsilon' from the maximal observed posterior belief (Eq. 10 inverted).
/// Requires max_belief in (0, 1); beliefs <= 0.5 audit to epsilon' = 0.
StatusOr<double> EpsilonFromMaxBelief(double max_belief);

/// epsilon' from an empirical advantage at the given delta (inverse of
/// Theorem 2). Advantages <= 0 audit to epsilon' = 0; an advantage of 1
/// (every trial won — possible with finitely many repetitions) audits to
/// +infinity, since no finite epsilon permits certain identification.
StatusOr<double> EpsilonFromAdvantage(double advantage, double delta);

/// Bundles the three estimators for one experiment summary.
struct AuditReport {
  double epsilon_from_sensitivities = 0.0;
  double epsilon_from_belief = 0.0;
  double epsilon_from_advantage = 0.0;
};

StatusOr<AuditReport> AuditExperiment(const DiExperimentSummary& summary,
                                      double delta);

/// Confidence interval for the advantage-based estimator: the empirical
/// advantage is 2 * (wins / trials) - 1 with binomial noise, so the Wilson
/// 95% interval on the success rate maps (monotonically, via the inverse of
/// Theorem 2) to an interval on epsilon'. This is the honest way to read a
/// Figure-10-style audit at finite repetitions: "with 95% confidence the
/// factual epsilon lies in [lo, hi]".
struct EpsilonInterval {
  double lo = 0.0;
  double hi = 0.0;
  double point = 0.0;  // the point estimate from the observed advantage
};

StatusOr<EpsilonInterval> EpsilonIntervalFromWins(size_t wins, size_t trials,
                                                  double delta,
                                                  double z_score = 1.96);

/// Convenience over an experiment summary.
StatusOr<EpsilonInterval> EpsilonIntervalFromAdvantage(
    const DiExperimentSummary& summary, double delta);

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_AUDITOR_H_
