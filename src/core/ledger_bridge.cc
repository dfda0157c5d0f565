#include "core/ledger_bridge.h"

#include <algorithm>
#include <cstdio>

#include "core/dpsgd.h"
#include "data/dataset.h"
#include "dp/privacy_params.h"

namespace dpaudit {

namespace {

std::string DigestHex(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// The ledger content digest of the first `count` trials: one path for the
/// experiment block and the audit row, so the two always agree.
std::string LedgerDigestOfTrials(const std::vector<DiTrialResult>& trials,
                                 size_t count) {
  obs::LedgerDigest digest;
  for (size_t rep = 0; rep < count; ++rep) digest.AddTrial(trials[rep]);
  return digest.Hex();
}

}  // namespace

obs::LedgerExperiment BuildLedgerExperiment(
    const TraceFingerprint& fingerprint, const DiExperimentConfig& config,
    const Dataset& d, const Dataset& d_prime, const Dataset* test_set,
    const std::vector<DiTrialResult>& trials, size_t repetitions) {
  obs::LedgerExperiment experiment;
  experiment.fingerprint = fingerprint.ToHex();
  experiment.seed = config.seed;
  experiment.repetitions = repetitions;
  experiment.epochs = config.dpsgd.epochs;
  experiment.learning_rate = config.dpsgd.learning_rate;
  experiment.clip_norm = config.dpsgd.clip_norm;
  experiment.noise_multiplier = config.dpsgd.noise_multiplier;
  experiment.sensitivity_mode =
      SensitivityModeToString(config.dpsgd.sensitivity_mode);
  experiment.neighbor_mode = NeighborModeToString(config.dpsgd.neighbor_mode);
  experiment.sampling_rate = config.dpsgd.sampling_rate;
  experiment.dataset_digest_d = DigestHex(DatasetDigest(d));
  experiment.dataset_digest_dprime = DigestHex(DatasetDigest(d_prime));
  experiment.dataset_digest_test =
      (test_set != nullptr && !test_set->empty())
          ? DigestHex(DatasetDigest(*test_set))
          : std::string();

  const size_t reps = std::min(repetitions, trials.size());
  experiment.trials.reserve(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    const DiTrialResult& result = trials[rep];
    if (rep == 0) {
      experiment.steps_per_trial = result.steps.size();
      experiment.prior_belief_d =
          result.belief_history.empty() ? 0.5 : result.belief_history.front();
    }
    obs::LedgerTrial trial;
    trial.rep = rep;
    trial.trained_on_d = result.trained_on_d;
    trial.adversary_says_d = result.adversary_says_d;
    trial.final_belief_d = result.final_belief_d;
    trial.max_belief_d = result.max_belief_d;
    trial.test_accuracy = result.test_accuracy;
    trial.steps.reserve(result.steps.size());
    double llr = 0.0;
    for (size_t i = 0; i < result.steps.size(); ++i) {
      const StepRecord& record = result.steps[i];
      obs::LedgerStep step;
      step.step = i;
      step.clip_norm = record.clip_norm;
      step.local_sensitivity = record.local_sensitivity;
      step.sensitivity_used = record.sensitivity_used;
      step.sigma = record.sigma;
      step.log_density_d = record.log_density_d;
      step.log_density_dprime = record.log_density_dprime;
      llr += record.log_density_d - record.log_density_dprime;
      step.llr = llr;
      step.belief_d = record.belief_d;
      step.rdp_eps_alpha2 =
          obs::LedgerRdpAlpha2(record.sigma, record.local_sensitivity);
      trial.steps.push_back(step);
    }
    experiment.trials.push_back(std::move(trial));
  }
  experiment.digest = LedgerDigestOfTrials(trials, reps);
  return experiment;
}

void EmitLedgerExperiment(const TraceFingerprint& fingerprint,
                          const DiExperimentConfig& config, const Dataset& d,
                          const Dataset& d_prime, const Dataset* test_set,
                          const std::vector<DiTrialResult>& trials) {
  if (!obs::AuditLedgerEnabled()) return;
  obs::LedgerExperiment experiment = BuildLedgerExperiment(
      fingerprint, config, d, d_prime, test_set, trials, trials.size());
  obs::AppendLedgerExperiment(&experiment);
}

void EmitLedgerError(const TraceFingerprint& fingerprint,
                     size_t repetitions_requested,
                     size_t repetitions_completed, size_t trials_failed,
                     const std::string& message) {
  if (!obs::AuditLedgerEnabled()) return;
  obs::LedgerError error;
  error.fingerprint = fingerprint.ToHex();
  error.repetitions_requested = repetitions_requested;
  error.repetitions_completed = repetitions_completed;
  error.trials_failed = trials_failed;
  error.message = message;
  obs::AppendLedgerError(&error);
}

void EmitLedgerAudit(const DiExperimentSummary& summary, double delta,
                     const AuditReport& report) {
  if (!obs::AuditLedgerEnabled()) return;
  obs::LedgerAudit audit;
  audit.digest = LedgerDigestOfTrials(summary.trials, summary.trials.size());
  audit.delta = delta;
  audit.epsilon_from_sensitivities = report.epsilon_from_sensitivities;
  audit.epsilon_from_belief = report.epsilon_from_belief;
  audit.epsilon_from_advantage = report.epsilon_from_advantage;
  audit.advantage = summary.EmpiricalAdvantage();
  audit.max_belief = summary.MaxBeliefInD();
  obs::AppendLedgerAudit(&audit);
}

}  // namespace dpaudit
