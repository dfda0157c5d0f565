// Differentially private batch gradient descent with per-step observation
// hooks — the training procedure of Section 6.1 / Algorithm 1's environment.
//
// Release convention: at each step the mechanism output is the Gaussian-
// perturbed SUM of clipped per-example gradients,
//   r_i = S_b + N(0, sigma_i^2 I),   S_b = sum_j clip(g_i(x_j), C),
// and the weight update is theta <- theta - (eta / n) * r_i with n = |D|
// fixed. Working in sum space keeps the two hypotheses' output distributions
// equal-covariance Gaussians (the setting of Theorem 2) and makes the
// per-step local sensitivity directly comparable to the clip norm:
//   LS_i = ||S_D - S_D'||, which is the paper's n * ||g_hat(D) - g_hat(D')||.
//
// The trainer always evaluates BOTH neighboring datasets' gradient sums at
// the current weights: the noise scale may depend on the local sensitivity
// (SensitivityMode::kLocalHat), and the DP adversary consumes both sums via
// the StepObserver hook. Which dataset actually drives training is the
// challenger's bit from Experiment 2.
//
// Minibatch DPSGD (Section 6.1) is the same loop with a Poisson sampler in
// front of the clip stage: with sampling_rate q < 1 each step includes every
// record of D' independently with probability q, and D's extra record x1
// with probability q when training runs on D. sum_d and sum_dprime are then
// the two hypotheses' centers over the realized batch of common records:
// sum_dprime holds the sampled common records and sum_d adds x1. The
// release is centered on sum_d when x1 was sampled and training runs on D,
// and on sum_dprime otherwise, so under D it follows the mixture
// q N(sum_d, sigma^2 I) + (1 - q) N(sum_dprime, sigma^2 I) that the
// subsampled-Gaussian RDP bound (dp/rdp_accountant.h) accounts for.

#ifndef DPAUDIT_CORE_DPSGD_H_
#define DPAUDIT_CORE_DPSGD_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "dp/privacy_params.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "util/random.h"
#include "util/status.h"

namespace dpaudit {

/// Hyperparameters of a DPSGD run (paper Table 1 defaults).
struct DpSgdConfig {
  size_t epochs = 30;            // k; batch GD: one step per epoch
  double learning_rate = 0.005;  // eta, applied to the mean gradient
  double clip_norm = 3.0;        // C
  double noise_multiplier = 1.0; // z = sigma_i / Delta f_i
  SensitivityMode sensitivity_mode = SensitivityMode::kGlobal;
  NeighborMode neighbor_mode = NeighborMode::kBounded;
  /// Update rule fed with the released noisy mean gradient (Section 2.1
  /// allows "a differentially private version of ... Adam or SGD").
  OptimizerKind optimizer = OptimizerKind::kSgd;

  /// Adaptive clipping (Thakkar et al., the paper's Section 7 suggestion):
  /// after each step, move the clip norm toward the `clip_quantile`-th
  /// quantile of the training data's per-example gradient norms with
  /// geometric smoothing `clip_smoothing`. The realized clip-norm series is
  /// part of the mechanism description known to the adversary, and the
  /// per-step global sensitivity scales with the current clip norm, so the
  /// DP accounting stays valid. (The quantile itself is not privatized —
  /// this implements the utility ablation, as noted in DESIGN.md.)
  bool adaptive_clipping = false;
  double clip_quantile = 0.5;
  double clip_smoothing = 0.3;

  /// Per-layer clipping (Section 7's "setting C differently for each
  /// layer"): each layer's per-example gradient slice is clipped to
  /// C / sqrt(L). The whole-gradient norm stays <= C, so global sensitivity
  /// and accounting are unchanged. Incompatible with adaptive_clipping.
  bool per_layer_clipping = false;

  /// Worker threads for per-example gradient computation within a step
  /// (0 = DefaultThreadCount()). Results are bit-identical for any value;
  /// the sweep scheduler (which also runs RunDiExperiment) lowers this
  /// automatically when repetitions already run in parallel.
  size_t threads = 0;

  /// Poisson sampling rate q in (0, 1]; 1 is batch gradient descent. q < 1
  /// needs unbounded neighbours (D' = D minus x1), global sensitivity and a
  /// fixed whole-gradient clip norm, the setting the subsampled-Gaussian
  /// bound covers. The optimizer divides each release by q * |D|, the
  /// expected batch size.
  double sampling_rate = 1.0;

  Status Validate() const;
};

/// One mechanism release, as the trainer made it and A_DI scored it: the
/// per-step record of every trial (core/experiment.h), persisted field for
/// field by the trace cache, the sweep journal and the ledger. RunDpSgd
/// fills the mechanism fields; RunDiTrial adds the adversary's.
struct StepRecord {
  double clip_norm = 0.0;          // C_i in effect at this step
  double local_sensitivity = 0.0;  // ||S_D - S_D'|| observed at this step
  double sensitivity_used = 0.0;   // Delta f_i that scaled sigma
  double sigma = 0.0;              // noise std used (sum space)
  double log_density_d = 0.0;      // log Pr[M(S_D) = r_i]
  double log_density_dprime = 0.0; // log Pr[M(S_D') = r_i]
  double belief_d = 0.5;           // beta_i(D) after this release
};

/// Receives every release as it happens. `sum_d` / `sum_dprime` are the
/// clipped gradient sums under each hypothesis at the current weights (over
/// the step's batch when sampling_rate < 1); `released` is the perturbed sum
/// the mechanism output; `sigma` its noise.
class DpSgdStepObserver {
 public:
  virtual ~DpSgdStepObserver() = default;
  virtual void OnStep(size_t step, const std::vector<float>& sum_d,
                      const std::vector<float>& sum_dprime,
                      const std::vector<float>& released, double sigma) = 0;
};

struct DpSgdResult {
  Network model;                  // trained network
  std::vector<StepRecord> steps;  // one per update step, mechanism fields
};

/// Runs DPSGD. `initial` provides the architecture and theta_0 (known to the
/// adversary); `train_on_d` is the challenger's bit b from Experiment 2
/// (true: gradients come from D; false: from D'). Observers (optional) see
/// every release.
StatusOr<DpSgdResult> RunDpSgd(const Network& initial, const Dataset& d,
                               const Dataset& d_prime, bool train_on_d,
                               const DpSgdConfig& config, Rng& rng,
                               DpSgdStepObserver* observer = nullptr);

/// Non-private baseline: plain batch gradient descent (clipping but no
/// noise), used for utility reference points.
StatusOr<Network> RunNonPrivateSgd(const Network& initial, const Dataset& d,
                                   size_t epochs, double learning_rate,
                                   double clip_norm);

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_DPSGD_H_
