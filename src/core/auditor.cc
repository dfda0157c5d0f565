#include "core/auditor.h"

#include <cmath>
#include <limits>

#include "core/dpsgd.h"
#include "core/ledger_bridge.h"
#include "core/scores.h"
#include "dp/rdp_accountant.h"
#include "stats/summary.h"
#include "util/math_util.h"

namespace dpaudit {

StatusOr<double> EpsilonFromSensitivities(const std::vector<StepRecord>& steps,
                                          double delta) {
  if (steps.empty()) {
    return Status::InvalidArgument("need at least one step");
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  RdpAccountant accountant;
  for (const StepRecord& step : steps) {
    if (!(step.sigma > 0.0)) {
      return Status::InvalidArgument("sigma must be > 0 at every step");
    }
    if (step.local_sensitivity <= 0.0) continue;  // indistinguishable step
    accountant.AddGaussianSteps(step.sigma / step.local_sensitivity);
  }
  if (accountant.steps() == 0) return 0.0;
  return accountant.GetEpsilon(delta);
}

StatusOr<double> EpsilonFromSensitivities(const DiExperimentSummary& summary,
                                          double delta) {
  if (summary.trials.empty()) {
    return Status::InvalidArgument("summary has no trials");
  }
  RunningSummary epsilons;
  for (const DiTrialResult& trial : summary.trials) {
    DPAUDIT_ASSIGN_OR_RETURN(double eps,
                             EpsilonFromSensitivities(trial.steps, delta));
    epsilons.Add(eps);
  }
  return epsilons.mean();
}

StatusOr<double> EpsilonFromMaxBelief(double max_belief) {
  if (!(max_belief > 0.0 && max_belief < 1.0)) {
    return Status::InvalidArgument("belief must be in (0, 1)");
  }
  if (max_belief <= 0.5) return 0.0;
  return Logit(max_belief);
}

StatusOr<double> EpsilonFromAdvantage(double advantage, double delta) {
  if (!(advantage <= 1.0)) {
    return Status::InvalidArgument("advantage must be <= 1");
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (advantage <= 0.0) return 0.0;
  if (advantage >= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  return EpsilonForRhoAlpha(advantage, delta);
}

StatusOr<EpsilonInterval> EpsilonIntervalFromWins(size_t wins, size_t trials,
                                                  double delta,
                                                  double z_score) {
  if (trials == 0) return Status::InvalidArgument("trials must be > 0");
  if (wins > trials) {
    return Status::InvalidArgument("wins cannot exceed trials");
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  Interval rate = WilsonInterval(wins, trials, z_score);
  EpsilonInterval interval;
  // EpsilonFromAdvantage is monotone in the advantage, so mapping the rate
  // interval endpoints yields the epsilon' interval.
  DPAUDIT_ASSIGN_OR_RETURN(interval.lo,
                           EpsilonFromAdvantage(2.0 * rate.lo - 1.0, delta));
  DPAUDIT_ASSIGN_OR_RETURN(interval.hi,
                           EpsilonFromAdvantage(2.0 * rate.hi - 1.0, delta));
  double advantage =
      2.0 * static_cast<double>(wins) / static_cast<double>(trials) - 1.0;
  DPAUDIT_ASSIGN_OR_RETURN(interval.point,
                           EpsilonFromAdvantage(advantage, delta));
  return interval;
}

StatusOr<EpsilonInterval> EpsilonIntervalFromAdvantage(
    const DiExperimentSummary& summary, double delta) {
  if (summary.trials.empty()) {
    return Status::InvalidArgument("summary has no trials");
  }
  size_t wins = 0;
  for (const DiTrialResult& trial : summary.trials) {
    if (trial.Success()) ++wins;
  }
  return EpsilonIntervalFromWins(wins, summary.trials.size(), delta);
}

StatusOr<AuditReport> AuditExperiment(const DiExperimentSummary& summary,
                                      double delta) {
  AuditReport report;
  DPAUDIT_ASSIGN_OR_RETURN(report.epsilon_from_sensitivities,
                           EpsilonFromSensitivities(summary, delta));
  DPAUDIT_ASSIGN_OR_RETURN(report.epsilon_from_belief,
                           EpsilonFromMaxBelief(summary.MaxBeliefInD()));
  DPAUDIT_ASSIGN_OR_RETURN(
      report.epsilon_from_advantage,
      EpsilonFromAdvantage(summary.EmpiricalAdvantage(), delta));
  // The ledger's audit row links to the experiment block through the trial
  // content digest, so `dpaudit_cli ledger check` can recompute all three
  // estimators from rows alone and verify them against this report.
  if (LedgerEnabled()) {
    EmitLedgerAudit(summary, delta, report);
  }
  return report;
}

}  // namespace dpaudit
