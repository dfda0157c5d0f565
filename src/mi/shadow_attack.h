// Shadow-model membership-inference attack (Shokri et al., S&P 2017) — the
// stronger of the two MI baselines the paper contrasts A_DI with.
//
// The adversary trains `shadow_count` shadow models on datasets drawn from
// Dist with the same mechanism as the target, labels each shadow's records
// as member/non-member, extracts per-record features from the shadow's
// predictions (loss, true-class confidence, top confidence, entropy), and
// fits a logistic-regression attack model. Against the target model it
// extracts the same features and thresholds the attack model's output.
//
// Still strictly weaker than A_DI (Proposition 1): the shadow attacker never
// sees per-step gradients and holds no per-record auxiliary knowledge.

#ifndef DPAUDIT_MI_SHADOW_ATTACK_H_
#define DPAUDIT_MI_SHADOW_ATTACK_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/dpsgd.h"
#include "data/dataset.h"
#include "mi/membership_inference.h"
#include "nn/network.h"
#include "util/status.h"

namespace dpaudit {

/// Prediction-derived features of one record under one model.
struct AttackFeatures {
  static constexpr size_t kCount = 4;
  double loss;              // cross-entropy at the true label
  double true_confidence;   // softmax probability of the true label
  double top_confidence;    // max softmax probability
  double entropy;           // prediction entropy

  std::array<double, kCount> AsArray() const {
    return {loss, true_confidence, top_confidence, entropy};
  }
};

/// Extracts attack features for (input, label) under `model`.
AttackFeatures ExtractAttackFeatures(Network& model, const Tensor& input,
                                     size_t label);

/// Attack features of every record, in record order, from one batched
/// logits pass (Network::Logits); each equals the single-record extraction.
std::vector<AttackFeatures> ExtractAttackFeatures(Network& model,
                                                  const Dataset& records);

/// Binary logistic regression over AttackFeatures, trained with gradient
/// descent on standardized features.
class LogisticAttackModel {
 public:
  /// Fits on features with member labels (true = member). Requires at least
  /// one example of each class.
  Status Fit(const std::vector<AttackFeatures>& features,
             const std::vector<bool>& is_member, size_t iterations = 300,
             double learning_rate = 0.5);

  /// P(member | features). Requires Fit().
  double Predict(const AttackFeatures& features) const;

  bool DecideMember(const AttackFeatures& features) const {
    return Predict(features) > 0.5;
  }

  bool fitted() const { return fitted_; }

 private:
  std::array<double, AttackFeatures::kCount> weights_{};
  std::array<double, AttackFeatures::kCount> mean_{};
  std::array<double, AttackFeatures::kCount> scale_{};
  double bias_ = 0.0;
  bool fitted_ = false;
};

struct ShadowAttackConfig {
  DpSgdConfig dpsgd;         // the mechanism under attack
  size_t train_size = 40;    // n, per shadow and for the target
  size_t shadow_count = 6;   // shadow models
  size_t trials = 50;        // membership challenges against fresh targets
  uint64_t seed = 42;
  size_t threads = 0;
};

struct ShadowAttackResult {
  double success_rate = 0.0;
  double advantage = 0.0;
  size_t trials = 0;
};

/// Full experiment: train shadows, fit the attack model, then run
/// Experiment 1 challenges against independently trained target models.
StatusOr<ShadowAttackResult> RunShadowAttackExperiment(
    const Network& architecture, const DistSampler& sampler,
    const ShadowAttackConfig& config);

}  // namespace dpaudit

#endif  // DPAUDIT_MI_SHADOW_ATTACK_H_
