#include "core/multi_world.h"

#include <algorithm>
#include <cmath>

#include "dp/mechanism.h"
#include "dp/privacy_params.h"
#include "nn/gradient_engine.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace dpaudit {

MultiWorldPosterior::MultiWorldPosterior(size_t num_worlds)
    : log_weights_(num_worlds, 0.0) {
  DPAUDIT_CHECK_GE(num_worlds, 2u);
}

MultiWorldPosterior::MultiWorldPosterior(
    const std::vector<double>& prior_weights)
    : log_weights_(prior_weights.size()) {
  DPAUDIT_CHECK_GE(prior_weights.size(), 2u);
  for (size_t i = 0; i < prior_weights.size(); ++i) {
    DPAUDIT_CHECK_GT(prior_weights[i], 0.0) << "prior weights must be > 0";
    log_weights_[i] = std::log(prior_weights[i]);
  }
}

void MultiWorldPosterior::Observe(
    const std::vector<double>& log_likelihoods) {
  DPAUDIT_CHECK_EQ(log_likelihoods.size(), log_weights_.size());
  for (size_t i = 0; i < log_weights_.size(); ++i) {
    log_weights_[i] += log_likelihoods[i];
  }
  // Re-center to keep the weights in a safe numeric range.
  double hi = *std::max_element(log_weights_.begin(), log_weights_.end());
  for (double& w : log_weights_) w -= hi;
  ++observations_;
}

std::vector<double> MultiWorldPosterior::Posterior() const {
  double log_z = LogSumExp(log_weights_);
  std::vector<double> posterior(log_weights_.size());
  for (size_t i = 0; i < log_weights_.size(); ++i) {
    posterior[i] = std::exp(log_weights_[i] - log_z);
  }
  return posterior;
}

double MultiWorldPosterior::Belief(size_t world) const {
  DPAUDIT_CHECK_LT(world, log_weights_.size());
  return Posterior()[world];
}

size_t MultiWorldPosterior::MapEstimate() const {
  size_t best = 0;
  for (size_t i = 1; i < log_weights_.size(); ++i) {
    if (log_weights_[i] > log_weights_[best]) best = i;
  }
  return best;
}

StatusOr<MultiWorldSummary> RunMultiWorldExperiment(
    const Network& architecture, const std::vector<Dataset>& worlds,
    size_t true_world, const MultiWorldExperimentConfig& config) {
  DPAUDIT_RETURN_IF_ERROR(config.dpsgd.Validate());
  if (worlds.size() < 2) {
    return Status::InvalidArgument("need at least two candidate worlds");
  }
  if (true_world >= worlds.size()) {
    return Status::InvalidArgument("true world index out of range");
  }
  for (const Dataset& world : worlds) {
    if (world.empty()) {
      return Status::InvalidArgument("worlds must be non-empty");
    }
    if (world.size() != worlds[0].size()) {
      return Status::InvalidArgument("worlds must have equal record counts");
    }
  }
  if (config.repetitions == 0) {
    return Status::InvalidArgument("repetitions must be > 0");
  }

  const double n = static_cast<double>(worlds[0].size());
  // The lineup generalizes the bounded pair; scale noise to the bounded
  // global bound 2C (any two worlds' sums differ by at most |differing
  // records| * 2C; for the privacy semantics of a lineup the pairwise bound
  // is the relevant reference, as in Lee-Clifton).
  const double sensitivity =
      GlobalClipSensitivity(NeighborMode::kBounded, config.dpsgd.clip_norm);
  const double sigma = config.dpsgd.noise_multiplier * sensitivity;

  std::vector<int> hits(config.repetitions, 0);
  std::vector<double> true_beliefs(config.repetitions, 0.0);
  Rng root(config.seed);
  ThreadPool::ParallelFor(config.repetitions, DefaultThreadCount(),
                          [&](size_t rep) {
    Rng rng = root.Split(rep);
    Network model = architecture.Clone();
    model.Initialize(rng);
    // Repetitions already run in parallel, so each one's engine runs inline
    // on its own thread.
    GradientEngine::Options engine_options;
    engine_options.threads = 1;
    GradientEngine engine(model, engine_options);
    MultiWorldPosterior posterior(worlds.size());
    GaussianMechanism mechanism(sigma);
    for (size_t step = 0; step < config.dpsgd.epochs; ++step) {
      // Clipped gradient sums of every world at the current weights.
      engine.SyncParams(model);
      std::vector<std::vector<float>> sums;
      sums.reserve(worlds.size());
      for (const Dataset& world : worlds) {
        sums.push_back(engine.ClippedGradientSum(world.inputs, world.labels,
                                                 config.dpsgd.clip_norm));
      }
      std::vector<float> released = sums[true_world];
      mechanism.Perturb(released, rng);
      std::vector<double> log_likelihoods(worlds.size());
      for (size_t w = 0; w < worlds.size(); ++w) {
        log_likelihoods[w] = mechanism.LogDensity(released, sums[w]);
      }
      posterior.Observe(log_likelihoods);
      model.ApplyGradientStep(released, config.dpsgd.learning_rate / n);
    }
    hits[rep] = posterior.MapEstimate() == true_world ? 1 : 0;
    true_beliefs[rep] = posterior.Belief(true_world);
  });

  MultiWorldSummary summary;
  summary.num_worlds = worlds.size();
  size_t total_hits = 0;
  double belief_sum = 0.0;
  double belief_max = 0.0;
  for (size_t rep = 0; rep < config.repetitions; ++rep) {
    total_hits += static_cast<size_t>(hits[rep]);
    belief_sum += true_beliefs[rep];
    belief_max = std::max(belief_max, true_beliefs[rep]);
  }
  summary.identification_rate =
      static_cast<double>(total_hits) /
      static_cast<double>(config.repetitions);
  summary.mean_true_belief =
      belief_sum / static_cast<double>(config.repetitions);
  summary.max_true_belief = belief_max;
  return summary;
}

}  // namespace dpaudit
