#include "mi/shadow_attack.h"

#include <cmath>

#include "data/dataset.h"
#include "nn/loss.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dpaudit {

namespace {

AttackFeatures FeaturesFromLogits(const Tensor& logits, size_t label) {
  DPAUDIT_CHECK_LT(label, logits.size());
  Tensor probs = SoftmaxProbabilities(logits);
  AttackFeatures features;
  features.loss = SoftmaxCrossEntropy(logits, label).loss;
  features.true_confidence = probs[label];
  double top = 0.0;
  double entropy = 0.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    double p = probs[i];
    top = std::max(top, p);
    if (p > 1e-12) entropy -= p * std::log(p);
  }
  features.top_confidence = top;
  features.entropy = entropy;
  return features;
}

}  // namespace

AttackFeatures ExtractAttackFeatures(Network& model, const Tensor& input,
                                     size_t label) {
  return FeaturesFromLogits(model.Forward(input), label);
}

std::vector<AttackFeatures> ExtractAttackFeatures(Network& model,
                                                  const Dataset& records) {
  const std::vector<Tensor> logits = model.Logits(records.inputs);
  std::vector<AttackFeatures> features;
  features.reserve(logits.size());
  for (size_t i = 0; i < logits.size(); ++i) {
    features.push_back(FeaturesFromLogits(logits[i], records.labels[i]));
  }
  return features;
}

Status LogisticAttackModel::Fit(const std::vector<AttackFeatures>& features,
                                const std::vector<bool>& is_member,
                                size_t iterations, double learning_rate) {
  if (features.size() != is_member.size()) {
    return Status::InvalidArgument("features and labels differ in size");
  }
  size_t members = 0;
  for (bool m : is_member) members += m ? 1 : 0;
  if (members == 0 || members == is_member.size()) {
    return Status::InvalidArgument(
        "attack training set needs both members and non-members");
  }

  // Standardize features so one learning rate fits all dimensions.
  const size_t n = features.size();
  for (size_t f = 0; f < AttackFeatures::kCount; ++f) {
    double mean = 0.0;
    for (const AttackFeatures& x : features) mean += x.AsArray()[f];
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (const AttackFeatures& x : features) {
      double d = x.AsArray()[f] - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    mean_[f] = mean;
    scale_[f] = var > 1e-12 ? 1.0 / std::sqrt(var) : 0.0;
  }

  weights_.fill(0.0);
  bias_ = 0.0;
  for (size_t iter = 0; iter < iterations; ++iter) {
    std::array<double, AttackFeatures::kCount> grad{};
    double grad_bias = 0.0;
    for (size_t i = 0; i < n; ++i) {
      std::array<double, AttackFeatures::kCount> x = features[i].AsArray();
      double score = bias_;
      for (size_t f = 0; f < AttackFeatures::kCount; ++f) {
        score += weights_[f] * (x[f] - mean_[f]) * scale_[f];
      }
      double err = Sigmoid(score) - (is_member[i] ? 1.0 : 0.0);
      for (size_t f = 0; f < AttackFeatures::kCount; ++f) {
        grad[f] += err * (x[f] - mean_[f]) * scale_[f];
      }
      grad_bias += err;
    }
    for (size_t f = 0; f < AttackFeatures::kCount; ++f) {
      weights_[f] -= learning_rate * grad[f] / static_cast<double>(n);
    }
    bias_ -= learning_rate * grad_bias / static_cast<double>(n);
  }
  fitted_ = true;
  return Status::Ok();
}

double LogisticAttackModel::Predict(const AttackFeatures& features) const {
  DPAUDIT_CHECK(fitted_) << "Fit() before Predict()";
  std::array<double, AttackFeatures::kCount> x = features.AsArray();
  double score = bias_;
  for (size_t f = 0; f < AttackFeatures::kCount; ++f) {
    score += weights_[f] * (x[f] - mean_[f]) * scale_[f];
  }
  return Sigmoid(score);
}

StatusOr<ShadowAttackResult> RunShadowAttackExperiment(
    const Network& architecture, const DistSampler& sampler,
    const ShadowAttackConfig& config) {
  DPAUDIT_RETURN_IF_ERROR(config.dpsgd.Validate());
  if (config.shadow_count == 0) {
    return Status::InvalidArgument("need at least one shadow model");
  }
  if (config.trials == 0) return Status::InvalidArgument("trials must be > 0");
  if (config.train_size < 2) {
    return Status::InvalidArgument("train size must be >= 2");
  }

  Rng root(config.seed);

  // Phase 1: shadow models. Each contributes its members and an equal
  // number of fresh non-members to the attack training set.
  std::vector<AttackFeatures> attack_features;
  std::vector<bool> attack_labels;
  for (size_t s = 0; s < config.shadow_count; ++s) {
    Rng rng = root.Split(1000 + s);
    Dataset shadow_data = sampler(config.train_size, rng);
    Dataset replacement = sampler(1, rng);
    Dataset neighbor = shadow_data.WithRecordReplaced(
        0, replacement.inputs[0], replacement.labels[0]);
    Network model = architecture.Clone();
    model.Initialize(rng);
    StatusOr<DpSgdResult> run = RunDpSgd(model, shadow_data, neighbor,
                                         /*train_on_d=*/true, config.dpsgd,
                                         rng, /*observer=*/nullptr);
    DPAUDIT_RETURN_IF_ERROR(run.status());
    for (const AttackFeatures& f :
         ExtractAttackFeatures(run->model, shadow_data)) {
      attack_features.push_back(f);
      attack_labels.push_back(true);
    }
    Dataset fresh = sampler(config.train_size, rng);
    for (const AttackFeatures& f : ExtractAttackFeatures(run->model, fresh)) {
      attack_features.push_back(f);
      attack_labels.push_back(false);
    }
  }

  LogisticAttackModel attack_model;
  DPAUDIT_RETURN_IF_ERROR(attack_model.Fit(attack_features, attack_labels));

  // Phase 2: membership challenges against fresh target models.
  std::vector<int> outcomes(config.trials, -1);
  std::vector<Status> trial_status(config.trials, Status::Ok());
  size_t threads =
      config.threads == 0 ? DefaultThreadCount() : config.threads;
  ThreadPool::ParallelFor(config.trials, threads, [&](size_t trial) {
    Rng rng = root.Split(trial);
    Dataset d = sampler(config.train_size, rng);
    Dataset replacement = sampler(1, rng);
    Dataset neighbor = d.WithRecordReplaced(0, replacement.inputs[0],
                                            replacement.labels[0]);
    Network model = architecture.Clone();
    model.Initialize(rng);
    StatusOr<DpSgdResult> run = RunDpSgd(model, d, neighbor, true,
                                         config.dpsgd, rng, nullptr);
    if (!run.ok()) {
      trial_status[trial] = run.status();
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
    bool guess = attack_model.DecideMember(
        ExtractAttackFeatures(run->model, z, label));
    outcomes[trial] = (guess == b) ? 1 : 0;
  });
  for (const Status& st : trial_status) {
    if (!st.ok()) return st;
  }

  ShadowAttackResult result;
  result.trials = config.trials;
  size_t wins = 0;
  for (int o : outcomes) wins += static_cast<size_t>(o);
  result.success_rate =
      static_cast<double>(wins) / static_cast<double>(config.trials);
  result.advantage = 2.0 * result.success_rate - 1.0;
  return result;
}

}  // namespace dpaudit
