// Differential identifiability over a SET of possible worlds (Lee & Clifton,
// Section 2.3).
//
// The original DI threat model has the adversary compute a posterior over a
// finite set Psi of candidate input datasets given the mechanism outputs;
// Li et al. showed |Psi| = 2 recovers the DP worst case, which is what the
// rest of this library implements. This module provides the general |Psi|
// >= 2 machinery: a posterior tracker over many hypotheses and a DPSGD
// experiment where the adversary must pick the true training dataset out of
// a lineup. Useful for (a) validating the |Psi| = 2 reduction and (b)
// studying how identifiability decays as the adversary's uncertainty grows.

#ifndef DPAUDIT_CORE_MULTI_WORLD_H_
#define DPAUDIT_CORE_MULTI_WORLD_H_

#include <cstdint>
#include <vector>

#include "core/dpsgd.h"
#include "data/dataset.h"
#include "nn/network.h"
#include "util/status.h"

namespace dpaudit {

/// Bayesian posterior over |Psi| hypotheses, updated from per-hypothesis
/// log-likelihoods of each observation. Log-space throughout.
class MultiWorldPosterior {
 public:
  /// Uniform prior over `num_worlds` >= 2 hypotheses.
  explicit MultiWorldPosterior(size_t num_worlds);

  /// Prior from explicit weights (must be positive; normalized internally).
  explicit MultiWorldPosterior(const std::vector<double>& prior_weights);

  size_t num_worlds() const { return log_weights_.size(); }

  /// Records one observation: log Pr[M(Psi_i) = r] for every world i.
  void Observe(const std::vector<double>& log_likelihoods);

  /// Current posterior probabilities (sum to 1).
  std::vector<double> Posterior() const;

  /// Posterior of one world.
  double Belief(size_t world) const;

  /// argmax world (ties resolve to the lowest index).
  size_t MapEstimate() const;

  size_t observations() const { return observations_; }

 private:
  std::vector<double> log_weights_;  // unnormalized log posterior
  size_t observations_ = 0;
};

struct MultiWorldExperimentConfig {
  DpSgdConfig dpsgd;          // neighbor checks are skipped (worlds are free-form)
  size_t repetitions = 50;
  uint64_t seed = 42;
};

struct MultiWorldSummary {
  size_t num_worlds = 0;
  /// Fraction of repetitions where the MAP estimate hit the true world.
  double identification_rate = 0.0;
  /// Mean final posterior mass on the true world.
  double mean_true_belief = 0.0;
  /// Largest final posterior on the true world over repetitions.
  double max_true_belief = 0.0;
};

/// Lineup experiment: every repetition trains (DPSGD, Gaussian noise on the
/// clipped gradient sum, sigma = z * Delta f with Delta f = the global clip
/// bound) on worlds[true_world]; the adversary observes each release, scores
/// it under ALL worlds' clipped gradient sums at the tracked weights, and
/// finally names a world. All worlds must have equal record counts (bounded
/// DP lineup).
StatusOr<MultiWorldSummary> RunMultiWorldExperiment(
    const Network& architecture, const std::vector<Dataset>& worlds,
    size_t true_world, const MultiWorldExperimentConfig& config);

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_MULTI_WORLD_H_
