#include "core/experiment.h"

#include <algorithm>
#include <utility>

#include "core/adversary.h"
#include "core/sweep_scheduler.h"
#include "obs/span.h"
#include "util/random.h"

namespace dpaudit {

double DiExperimentSummary::SuccessRate() const {
  if (trials.empty()) return 0.0;
  size_t wins = 0;
  for (const DiTrialResult& t : trials) {
    if (t.Success()) ++wins;
  }
  return static_cast<double>(wins) / static_cast<double>(trials.size());
}

double DiExperimentSummary::EmpiricalAdvantage() const {
  return 2.0 * SuccessRate() - 1.0;
}

double DiExperimentSummary::EmpiricalDelta(double rho_beta) const {
  size_t on_d = 0;
  size_t exceeding = 0;
  for (const DiTrialResult& t : trials) {
    if (!t.trained_on_d) continue;
    ++on_d;
    if (t.final_belief_d > rho_beta) ++exceeding;
  }
  if (on_d == 0) return 0.0;
  return static_cast<double>(exceeding) / static_cast<double>(on_d);
}

std::vector<double> DiExperimentSummary::FinalBeliefsInD() const {
  std::vector<double> beliefs;
  for (const DiTrialResult& t : trials) {
    if (t.trained_on_d) beliefs.push_back(t.final_belief_d);
  }
  return beliefs;
}

double DiExperimentSummary::MaxBeliefInD() const {
  double best = 0.0;
  for (const DiTrialResult& t : trials) {
    if (t.trained_on_d) best = std::max(best, t.max_belief_d);
  }
  return best;
}

std::vector<double> DiExperimentSummary::TestAccuracies() const {
  std::vector<double> accuracies;
  for (const DiTrialResult& t : trials) {
    if (t.test_accuracy >= 0.0) accuracies.push_back(t.test_accuracy);
  }
  return accuracies;
}

Status RunDiTrial(const Network& architecture, const Dataset& d,
                  const Dataset& d_prime, const DiExperimentConfig& config,
                  size_t rep, DiTrialResult* trial_out,
                  const Dataset* test_set) {
  // Nests under the scheduling span: pool tasks adopt the scheduling
  // thread's span through the telemetry hooks.
  DPAUDIT_SPAN("repetition");
  Rng rng = Rng(config.seed).Split(rep);
  Network model = architecture.Clone();
  if (config.reinitialize_weights) model.Initialize(rng);

  bool train_on_d =
      config.randomize_challenge_bit ? rng.Bernoulli(0.5) : true;

  DiAdversary adversary(/*prior_belief_d=*/0.5, config.dpsgd.sampling_rate);
  StatusOr<DpSgdResult> run = RunDpSgd(model, d, d_prime, train_on_d,
                                       config.dpsgd, rng, &adversary);
  if (!run.ok()) return run.status();

  DiTrialResult trial;
  trial.trained_on_d = train_on_d;
  trial.adversary_says_d = adversary.DecideD();
  // The adversary tracks belief in D; when training ran on D' its belief in
  // the true dataset is the complement, but we always store belief in D so
  // the Figure 6 distributions are comparable.
  trial.final_belief_d = adversary.FinalBeliefD();
  trial.max_belief_d = adversary.MaxBeliefD();
  if (test_set != nullptr && !test_set->empty()) {
    trial.test_accuracy =
        run->model.Accuracy(test_set->inputs, test_set->labels);
  }
  trial.belief_history = adversary.BeliefHistory();
  trial.steps = std::move(run->steps);
  const std::vector<double>& log_d = adversary.StepLogDensitiesD();
  const std::vector<double>& log_dp = adversary.StepLogDensitiesDPrime();
  for (size_t i = 0; i < trial.steps.size(); ++i) {
    StepRecord& step = trial.steps[i];
    step.log_density_d = i < log_d.size() ? log_d[i] : 0.0;
    step.log_density_dprime = i < log_dp.size() ? log_dp[i] : 0.0;
    // history[0] is the prior, history[i+1] the belief after step i.
    step.belief_d = i + 1 < trial.belief_history.size()
                        ? trial.belief_history[i + 1]
                        : trial.final_belief_d;
  }
  *trial_out = std::move(trial);
  return Status::Ok();
}

StatusOr<DiExperimentSummary> RunDiExperiment(const Network& architecture,
                                              const Dataset& d,
                                              const Dataset& d_prime,
                                              const DiExperimentConfig& config,
                                              const Dataset* test_set) {
  // One repeated experiment is a one-cell sweep: the scheduler owns the
  // cache probe, prefix replay, save and ledger emission for both.
  SweepCell cell;
  cell.architecture = &architecture;
  cell.d = &d;
  cell.d_prime = &d_prime;
  cell.test_set = test_set;
  cell.config = config;
  return std::move(RunSweep({cell}, SweepOptionsFromRuntime()).front());
}

}  // namespace dpaudit
