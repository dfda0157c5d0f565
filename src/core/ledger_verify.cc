#include "core/ledger_verify.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "core/auditor.h"
#include "core/experiment.h"
#include "obs/json_util.h"
#include "util/math_util.h"

namespace dpaudit {

namespace {

/// Infinity-aware tolerance compare (epsilon_from_advantage is +infinity
/// when every trial won; NaN never legitimately appears but must not slip
/// through as "equal to anything").
bool NearlyEqual(double a, double b, double tolerance) {
  if (a == b) return true;  // covers matching infinities
  return std::abs(a - b) <= tolerance;
}

std::string Spell(double v) { return obs::JsonNumber(v); }

/// Rebuilds the DiExperimentSummary the original run audited, from ledger
/// rows alone.
DiExperimentSummary SummaryFromExperiment(
    const obs::LedgerExperiment& experiment) {
  DiExperimentSummary summary;
  summary.trials.reserve(experiment.trials.size());
  for (const obs::LedgerTrial& trial : experiment.trials) {
    DiTrialResult result;
    result.trained_on_d = trial.trained_on_d;
    result.adversary_says_d = trial.adversary_says_d;
    result.final_belief_d = trial.final_belief_d;
    result.max_belief_d = trial.max_belief_d;
    result.test_accuracy = trial.test_accuracy;
    result.steps.reserve(trial.steps.size());
    for (const obs::LedgerStep& step : trial.steps) {
      StepRecord record;
      record.clip_norm = step.clip_norm;
      record.local_sensitivity = step.local_sensitivity;
      record.sensitivity_used = step.sensitivity_used;
      record.sigma = step.sigma;
      record.log_density_d = step.log_density_d;
      record.log_density_dprime = step.log_density_dprime;
      record.belief_d = step.belief_d;
      result.steps.push_back(record);
    }
    summary.trials.push_back(std::move(result));
  }
  return summary;
}

Status CheckExperiment(const obs::LedgerExperiment& experiment,
                       double tolerance, std::ostream& report) {
  const std::string where =
      "experiment seq " + std::to_string(experiment.seq);

  // 1. Content digest over the trial rows.
  obs::LedgerDigest digest;
  for (const obs::LedgerTrial& trial : experiment.trials) {
    digest.AddTrial(trial);
  }
  if (digest.Hex() != experiment.digest) {
    return Status::InvalidArgument(where + ": digest mismatch (recomputed " +
                                   digest.Hex() + ", recorded " +
                                   experiment.digest + ")");
  }

  // 2. Belief-trajectory replay (Lemma 1) and per-step RDP contributions.
  const double prior_logit = Logit(experiment.prior_belief_d);
  for (const obs::LedgerTrial& trial : experiment.trials) {
    const std::string trial_where =
        where + " rep " + std::to_string(trial.rep);
    double llr = 0.0;
    double belief = experiment.prior_belief_d;
    double max_belief = experiment.prior_belief_d;
    for (const obs::LedgerStep& step : trial.steps) {
      const std::string step_where =
          trial_where + " step " + std::to_string(step.step);
      llr += step.log_density_d - step.log_density_dprime;
      if (!NearlyEqual(step.llr, llr, tolerance)) {
        return Status::InvalidArgument(
            step_where + ": llr replay mismatch (recomputed " + Spell(llr) +
            ", recorded " + Spell(step.llr) + ")");
      }
      belief = Sigmoid(prior_logit + llr);
      if (!NearlyEqual(step.belief_d, belief, tolerance)) {
        return Status::InvalidArgument(
            step_where + ": belief replay mismatch (recomputed " +
            Spell(belief) + ", recorded " + Spell(step.belief_d) + ")");
      }
      max_belief = std::max(max_belief, belief);
      const double rdp =
          obs::LedgerRdpAlpha2(step.sigma, step.local_sensitivity);
      if (!NearlyEqual(step.rdp_eps_alpha2, rdp, tolerance)) {
        return Status::InvalidArgument(
            step_where + ": rdp_eps_alpha2 mismatch (recomputed " +
            Spell(rdp) + ", recorded " + Spell(step.rdp_eps_alpha2) + ")");
      }
    }
    if (!NearlyEqual(trial.final_belief_d, belief, tolerance)) {
      return Status::InvalidArgument(
          trial_where + ": final_belief_d mismatch (replayed trajectory "
          "ends at " + Spell(belief) + ", recorded " +
          Spell(trial.final_belief_d) + ")");
    }
    if (!NearlyEqual(trial.max_belief_d, max_belief, tolerance)) {
      return Status::InvalidArgument(
          trial_where + ": max_belief_d mismatch (replayed trajectory "
          "peaks at " + Spell(max_belief) + ", recorded " +
          Spell(trial.max_belief_d) + ")");
    }
  }
  report << "experiment seq " << experiment.seq << ": digest "
         << experiment.digest << " ok; " << experiment.trials.size()
         << " trials x " << experiment.steps_per_trial
         << " steps; llr/belief/rdp replay ok\n";
  return Status::Ok();
}

Status CheckAudit(const obs::LedgerAudit& audit,
                  const std::vector<obs::LedgerExperiment>& experiments,
                  double tolerance, std::ostream& report) {
  const std::string where = "audit seq " + std::to_string(audit.seq);
  const obs::LedgerExperiment* experiment = nullptr;
  for (const obs::LedgerExperiment& candidate : experiments) {
    if (candidate.digest == audit.digest) {
      experiment = &candidate;
      break;
    }
  }
  if (experiment == nullptr) {
    return Status::InvalidArgument(where + ": no experiment block with "
                                   "digest " + audit.digest);
  }

  const DiExperimentSummary summary = SummaryFromExperiment(*experiment);

  const double advantage = summary.EmpiricalAdvantage();
  if (!NearlyEqual(audit.advantage, advantage, tolerance)) {
    return Status::InvalidArgument(where + ": advantage mismatch "
                                   "(recomputed " + Spell(advantage) +
                                   ", recorded " + Spell(audit.advantage) +
                                   ")");
  }
  const double max_belief = summary.MaxBeliefInD();
  if (!NearlyEqual(audit.max_belief, max_belief, tolerance)) {
    return Status::InvalidArgument(where + ": max_belief mismatch "
                                   "(recomputed " + Spell(max_belief) +
                                   ", recorded " + Spell(audit.max_belief) +
                                   ")");
  }

  StatusOr<double> eps_sens = EpsilonFromSensitivities(summary, audit.delta);
  if (!eps_sens.ok()) {
    return Status::InvalidArgument(where + ": cannot recompute "
                                   "epsilon_from_sensitivities: " +
                                   eps_sens.status().message());
  }
  if (!NearlyEqual(audit.epsilon_from_sensitivities, *eps_sens, tolerance)) {
    return Status::InvalidArgument(
        where + ": epsilon_from_sensitivities mismatch (recomputed " +
        Spell(*eps_sens) + ", recorded " +
        Spell(audit.epsilon_from_sensitivities) + ")");
  }

  StatusOr<double> eps_belief = EpsilonFromMaxBelief(max_belief);
  if (!eps_belief.ok()) {
    return Status::InvalidArgument(where + ": cannot recompute "
                                   "epsilon_from_belief: " +
                                   eps_belief.status().message());
  }
  if (!NearlyEqual(audit.epsilon_from_belief, *eps_belief, tolerance)) {
    return Status::InvalidArgument(
        where + ": epsilon_from_belief mismatch (recomputed " +
        Spell(*eps_belief) + ", recorded " +
        Spell(audit.epsilon_from_belief) + ")");
  }

  StatusOr<double> eps_adv = EpsilonFromAdvantage(advantage, audit.delta);
  if (!eps_adv.ok()) {
    return Status::InvalidArgument(where + ": cannot recompute "
                                   "epsilon_from_advantage: " +
                                   eps_adv.status().message());
  }
  if (!NearlyEqual(audit.epsilon_from_advantage, *eps_adv, tolerance)) {
    return Status::InvalidArgument(
        where + ": epsilon_from_advantage mismatch (recomputed " +
        Spell(*eps_adv) + ", recorded " +
        Spell(audit.epsilon_from_advantage) + ")");
  }

  report << "audit seq " << audit.seq << ": digest " << audit.digest
         << " -> experiment seq " << experiment->seq
         << "; eps_sens=" << Spell(*eps_sens)
         << " eps_belief=" << Spell(*eps_belief)
         << " eps_adv=" << Spell(*eps_adv) << " all match (tolerance "
         << tolerance << ")\n";
  return Status::Ok();
}

}  // namespace

Status CheckLedger(const obs::LedgerFile& file, double tolerance,
                   std::ostream& report) {
  for (const obs::LedgerExperiment& experiment : file.experiments) {
    DPAUDIT_RETURN_IF_ERROR(CheckExperiment(experiment, tolerance, report));
  }
  for (const obs::LedgerAudit& audit : file.audits) {
    DPAUDIT_RETURN_IF_ERROR(
        CheckAudit(audit, file.experiments, tolerance, report));
  }
  report << "ledger check: " << file.experiments.size() << " experiment(s), "
         << file.audits.size() << " audit(s), all checks passed\n";
  return Status::Ok();
}

Status CheckLedgerFile(const std::string& path, double tolerance,
                       std::ostream& report) {
  StatusOr<obs::LedgerFile> file = obs::LoadLedgerFile(path);
  if (!file.ok()) return file.status();
  return CheckLedger(*file, tolerance, report);
}

}  // namespace dpaudit
