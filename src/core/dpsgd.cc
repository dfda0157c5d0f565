#include "core/dpsgd.h"

#include <cmath>
#include <cstdint>

#include "core/neighbor_sums.h"
#include "dp/mechanism.h"
#include "dp/sensitivity.h"
#include "nn/gradient_engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "stats/summary.h"
#include "util/thread_pool.h"

namespace dpaudit {

Status DpSgdConfig::Validate() const {
  if (epochs == 0) return Status::InvalidArgument("epochs must be > 0");
  if (!(learning_rate > 0.0)) {
    return Status::InvalidArgument("learning rate must be > 0");
  }
  if (!(clip_norm > 0.0)) {
    return Status::InvalidArgument("clip norm must be > 0");
  }
  if (!(noise_multiplier > 0.0)) {
    return Status::InvalidArgument("noise multiplier must be > 0");
  }
  if (!(sampling_rate > 0.0 && sampling_rate <= 1.0)) {
    return Status::InvalidArgument("sampling rate must be in (0, 1]");
  }
  if (sampling_rate < 1.0 &&
      (neighbor_mode != NeighborMode::kUnbounded ||
       sensitivity_mode != SensitivityMode::kGlobal || adaptive_clipping ||
       per_layer_clipping)) {
    return Status::InvalidArgument(
        "sampling rate < 1 requires unbounded neighbours, global "
        "sensitivity and a fixed whole-gradient clip norm");
  }
  if (adaptive_clipping) {
    if (!(clip_quantile > 0.0 && clip_quantile < 1.0)) {
      return Status::InvalidArgument("clip quantile must be in (0, 1)");
    }
    if (!(clip_smoothing > 0.0 && clip_smoothing <= 1.0)) {
      return Status::InvalidArgument("clip smoothing must be in (0, 1]");
    }
    if (per_layer_clipping) {
      return Status::InvalidArgument(
          "adaptive and per-layer clipping cannot be combined");
    }
  }
  return Status::Ok();
}

StatusOr<DpSgdResult> RunDpSgd(const Network& initial, const Dataset& d,
                               const Dataset& d_prime, bool train_on_d,
                               const DpSgdConfig& config, Rng& rng,
                               DpSgdStepObserver* observer) {
  DPAUDIT_RETURN_IF_ERROR(config.Validate());
  if (d.empty()) return Status::InvalidArgument("D must be non-empty");
  if (d_prime.empty()) {
    return Status::InvalidArgument("D' must be non-empty");
  }
  if (config.neighbor_mode == NeighborMode::kBounded &&
      d.size() != d_prime.size()) {
    return Status::InvalidArgument(
        "bounded DP requires |D| == |D'| (one record replaced)");
  }
  if (config.neighbor_mode == NeighborMode::kUnbounded &&
      d.size() != d_prime.size() + 1) {
    return Status::InvalidArgument(
        "unbounded DP requires |D| == |D'| + 1 (one record removed)");
  }

  DpSgdResult result;
  result.model = initial.Clone();
  result.steps.reserve(config.epochs);
  std::unique_ptr<Optimizer> optimizer =
      MakeOptimizer(config.optimizer, config.learning_rate);
  // The expected batch size: the optimizer's divisor must not depend on the
  // realized batch.
  const double n = config.sampling_rate * static_cast<double>(d.size());
  const bool subsampled = config.sampling_rate < 1.0;
  double clip = config.clip_norm;

  // One engine (per-participant replicas and workspaces) for the whole run;
  // only parameters change between steps. The neighbor relationship between
  // D and D' is analyzed once so every step can share the per-example
  // gradients of the records the two datasets have in common.
  GradientEngine::Options engine_options;
  engine_options.threads =
      config.threads == 0 ? DefaultThreadCount() : config.threads;
  GradientEngine engine(result.model, engine_options);
  const NeighborOverlap overlap =
      AnalyzeNeighborOverlap(d, d_prime, config.neighbor_mode);
  if (subsampled && !overlap.sharable) {
    return Status::InvalidArgument(
        "subsampled DPSGD requires D' = D with one record removed");
  }
  // Poisson batch flags, one per record of D (x1's is unused).
  std::vector<uint8_t> batch(subsampled ? d.size() : 0);

  // Release and mean-gradient buffers live outside the step loop; each step
  // overwrites them in place, so the steady state allocates nothing per step.
  std::vector<float> released;
  std::vector<float> mean;

  for (size_t step = 0; step < config.epochs; ++step) {
    DPAUDIT_SPAN("train_step");
    DPAUDIT_METRIC_COUNT("dpaudit_train_steps_total", 1);
    // With q < 1 the step first draws its batch: each common record in
    // index order, then x1 (only when training runs on D). The release is
    // centered on sum_d iff training runs on D and x1 made the batch.
    bool release_d = train_on_d;
    if (subsampled) {
      for (size_t j = 0; j < d.size(); ++j) {
        batch[j] =
            j != overlap.diff_index && rng.Bernoulli(config.sampling_rate);
      }
      release_d = train_on_d && rng.Bernoulli(config.sampling_rate);
    }
    // Both hypotheses' clipped gradient sums at the current weights. The
    // adversary can compute these itself (it knows D, D', theta_i); the
    // trainer computes them anyway for noise scaling and hands them to
    // observers to avoid duplicate backprop work. Per-example norms of the
    // actual training data drive adaptive clipping.
    engine.SyncParams(result.model);
    NeighborSums sums = [&] {
      DPAUDIT_SPAN("per_example_gradients");
      return overlap.sharable
                 ? ComputeClippedNeighborSums(
                       engine, d, d_prime, overlap, config.neighbor_mode,
                       clip, config.per_layer_clipping,
                       subsampled ? &batch : nullptr)
                 : ComputeClippedNeighborSumsTwoPass(
                       engine, d, d_prime, clip, config.per_layer_clipping);
    }();
    std::vector<double>& train_norms =
        train_on_d ? sums.norms_d : sums.norms_dprime;
    std::vector<float>& sum_d = sums.sum_d;
    std::vector<float>& sum_dprime = sums.sum_dprime;

    StepRecord record;
    record.clip_norm = clip;
    record.local_sensitivity = GradientDistance(sum_d, sum_dprime);
    const double global_sensitivity =
        GlobalClipSensitivity(config.neighbor_mode, clip);
    record.sensitivity_used =
        config.sensitivity_mode == SensitivityMode::kGlobal
            ? global_sensitivity
            : record.local_sensitivity;
    if (record.sensitivity_used <= 0.0) {
      // Degenerate: both datasets induce identical sums (possible early in
      // training with dead ReLUs). Fall back to the global bound so the
      // mechanism stays well defined.
      record.sensitivity_used = global_sensitivity;
    }
    record.sigma = config.noise_multiplier * record.sensitivity_used;

    GaussianMechanism mechanism(record.sigma);
    const std::vector<float>& center = release_d ? sum_d : sum_dprime;
    released.assign(center.begin(), center.end());
    {
      DPAUDIT_SPAN("mechanism_perturb");
      mechanism.Perturb(released, rng);
    }

    if (observer != nullptr) {
      DPAUDIT_SPAN("adversary");
      observer->OnStep(step, sum_d, sum_dprime, released, record.sigma);
    }

    {
      DPAUDIT_SPAN("optimizer_step");
      // The optimizer consumes the released mean gradient (sum / n).
      mean.resize(released.size());
      for (size_t i = 0; i < released.size(); ++i) {
        mean[i] = static_cast<float>(released[i] / n);
      }
      optimizer->Step(result.model, mean);
    }
    result.steps.push_back(record);

    if (config.adaptive_clipping && !train_norms.empty()) {
      double target = Quantile(train_norms, config.clip_quantile);
      if (target > 0.0) {
        clip = (1.0 - config.clip_smoothing) * clip +
               config.clip_smoothing * target;
      }
    }
  }
  return result;
}

StatusOr<Network> RunNonPrivateSgd(const Network& initial, const Dataset& d,
                                   size_t epochs, double learning_rate,
                                   double clip_norm) {
  if (d.empty()) return Status::InvalidArgument("D must be non-empty");
  if (epochs == 0) return Status::InvalidArgument("epochs must be > 0");
  if (!(learning_rate > 0.0) || !(clip_norm > 0.0)) {
    return Status::InvalidArgument("learning rate and clip norm must be > 0");
  }
  Network model = initial.Clone();
  GradientEngine engine(model, {});
  const double n = static_cast<double>(d.size());
  for (size_t step = 0; step < epochs; ++step) {
    engine.SyncParams(model);
    std::vector<float> sum =
        engine.ClippedGradientSum(d.inputs, d.labels, clip_norm);
    model.ApplyGradientStep(sum, learning_rate / n);
  }
  return model;
}

}  // namespace dpaudit
