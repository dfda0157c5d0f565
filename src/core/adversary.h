// The implementable DP adversary A_DI,Gau (Algorithm 1).
//
// A_DI knows both neighboring datasets, the initial weights, the mechanism
// and its parameters, and observes every perturbed gradient release. It acts
// as a naive Bayes classifier over the releases (Eq. 4): per step it scores
// the observed release under the two Gaussian hypotheses centered at the
// clipped gradient sums of D and D', updates its posterior belief (Lemma 1),
// and finally outputs the dataset with the higher belief.
//
// Implemented as a DpSgdStepObserver so a single training run produces both
// the model and the adversary's full belief trajectory.
//
// Against Poisson-subsampled DPSGD (sampling rate q < 1, core/dpsgd.h) the
// adversary knows the realized batch of common records but not whether x1
// was sampled, so under D the release follows the mixture
// q N(sum_d, sigma^2 I) + (1 - q) N(sum_dprime, sigma^2 I) and under D' it
// follows N(sum_dprime, sigma^2 I). The adversary scores exactly these
// densities; at q = 1 the mixture is the binary test above.

#ifndef DPAUDIT_CORE_ADVERSARY_H_
#define DPAUDIT_CORE_ADVERSARY_H_

#include <vector>

#include "core/belief.h"
#include "core/dpsgd.h"

namespace dpaudit {

class DiAdversary : public DpSgdStepObserver {
 public:
  /// Uniform prior (the paper's assumption) unless specified; the sampling
  /// rate must match the trainer's DpSgdConfig::sampling_rate.
  explicit DiAdversary(double prior_belief_d = 0.5,
                       double sampling_rate = 1.0);

  /// Consumes one release: computes the Gaussian log-likelihood of the
  /// released vector under both centers (one fused pass through
  /// GaussianMechanism::LogDensityPair), mixes the D hypothesis's when
  /// q < 1, and updates the posterior.
  void OnStep(size_t step, const std::vector<float>& sum_d,
              const std::vector<float>& sum_dprime,
              const std::vector<float>& released, double sigma) override;

  /// beta_k(D): the adversary's final belief that training ran on D.
  double FinalBeliefD() const { return tracker_.belief_d(); }

  /// Largest belief in D attained at any step (the auditing statistic of
  /// Section 6.4, Figure 9).
  double MaxBeliefD() const;

  /// beta_0 .. beta_k trajectory.
  const std::vector<double>& BeliefHistory() const {
    return tracker_.history();
  }

  /// The adversary's output b' (Algorithm 1 step 14): true = D.
  bool DecideD() const { return tracker_.DecideD(); }

  /// Per-step log Pr[r_i | D] / log Pr[r_i | D'] — the released-vs-centers
  /// log-likelihood contributions each trial's StepRecord keeps (the
  /// mixture density under D when q < 1).
  const std::vector<double>& StepLogDensitiesD() const {
    return log_density_d_;
  }
  const std::vector<double>& StepLogDensitiesDPrime() const {
    return log_density_dprime_;
  }

 private:
  PosteriorBeliefTracker tracker_;
  double sampling_rate_;
  std::vector<double> log_density_d_;
  std::vector<double> log_density_dprime_;
};

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_ADVERSARY_H_
