#include "mi/membership_inference.h"

#include <cmath>

#include "nn/loss.h"
#include "stats/summary.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dpaudit {

MiAdversary::MiAdversary(DistSampler sampler, size_t probe_count,
                         double threshold_fraction)
    : sampler_(std::move(sampler)),
      probe_count_(probe_count),
      threshold_fraction_(threshold_fraction) {
  DPAUDIT_CHECK(sampler_ != nullptr);
  DPAUDIT_CHECK_GT(probe_count_, 0u);
  DPAUDIT_CHECK_GT(threshold_fraction_, 0.0);
}

Status MiAdversary::Calibrate(Network& model, Rng& rng) {
  Dataset probes = sampler_(probe_count_, rng);
  if (probes.empty()) {
    return Status::Internal("distribution sampler returned no records");
  }
  // One batched logits pass over the probes; each loss is bit-identical to
  // ExampleLoss on the probe alone.
  const std::vector<Tensor> logits = model.Logits(probes.inputs);
  RunningSummary losses;
  for (size_t i = 0; i < probes.size(); ++i) {
    losses.Add(SoftmaxCrossEntropy(logits[i], probes.labels[i]).loss);
  }
  threshold_ = threshold_fraction_ * losses.mean();
  return Status::Ok();
}

bool MiAdversary::Decide(Network& model, const Tensor& input,
                         size_t label) const {
  DPAUDIT_CHECK_GE(threshold_, 0.0) << "Calibrate() before Decide()";
  return model.ExampleLoss(input, label) < threshold_;
}

StatusOr<MiExperimentResult> RunMiExperiment(const Network& architecture,
                                             const DistSampler& sampler,
                                             const MiExperimentConfig& config) {
  DPAUDIT_RETURN_IF_ERROR(config.dpsgd.Validate());
  if (config.trials == 0) return Status::InvalidArgument("trials must be > 0");
  if (config.train_size < 2) {
    return Status::InvalidArgument("train size must be >= 2");
  }

  std::vector<int> outcomes(config.trials, -1);
  std::vector<Status> trial_status(config.trials, Status::Ok());
  Rng root(config.seed);
  size_t threads =
      config.threads == 0 ? DefaultThreadCount() : config.threads;

  ThreadPool::ParallelFor(config.trials, threads, [&](size_t trial) {
    Rng rng = root.Split(trial);
    // Sample D ~ Dist^n and a neighboring D' (one record replaced by a fresh
    // draw) purely so RunDpSgd's sensitivity bookkeeping is well defined;
    // the MI adversary never sees D'.
    Dataset d = sampler(config.train_size, rng);
    Dataset replacement = sampler(1, rng);
    Dataset d_prime = d.WithRecordReplaced(0, replacement.inputs[0],
                                           replacement.labels[0]);

    Network model = architecture.Clone();
    model.Initialize(rng);
    StatusOr<DpSgdResult> run = RunDpSgd(model, d, d_prime,
                                         /*train_on_d=*/true, config.dpsgd,
                                         rng, /*observer=*/nullptr);
    if (!run.ok()) {
      trial_status[trial] = run.status();
      return;
    }

    MiAdversary adversary(sampler);
    Status calibrated = adversary.Calibrate(run->model, rng);
    if (!calibrated.ok()) {
      trial_status[trial] = calibrated;
      return;
    }

    bool b = rng.Bernoulli(0.5);
    Tensor z;
    size_t label;
    if (b) {
      size_t idx = rng.UniformInt(d.size());
      z = d.inputs[idx];
      label = d.labels[idx];
    } else {
      Dataset fresh = sampler(1, rng);
      z = fresh.inputs[0];
      label = fresh.labels[0];
    }
    bool guess = adversary.Decide(run->model, z, label);
    outcomes[trial] = (guess == b) ? 1 : 0;
  });

  for (const Status& st : trial_status) {
    if (!st.ok()) return st;
  }
  MiExperimentResult result;
  result.trials = config.trials;
  size_t wins = 0;
  for (int outcome : outcomes) {
    DPAUDIT_CHECK_GE(outcome, 0);
    wins += static_cast<size_t>(outcome);
  }
  result.success_rate =
      static_cast<double>(wins) / static_cast<double>(config.trials);
  result.advantage = 2.0 * result.success_rate - 1.0;
  return result;
}

}  // namespace dpaudit
