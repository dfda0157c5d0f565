// Finite-difference gradient verification for the layer tests.

#ifndef DPAUDIT_TESTS_GRADIENT_CHECK_H_
#define DPAUDIT_TESTS_GRADIENT_CHECK_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "nn/network.h"
#include "tensor/tensor.h"
#include "util/logging.h"

namespace dpaudit {

struct GradientCheckResult {
  double max_abs_error;   // worst |analytic - numeric| over checked params
  double max_rel_error;   // worst relative error over checked params
  size_t params_checked;
};

/// Compares the analytic per-example gradient of `net` on (input, label) to a
/// central-difference approximation. `stride` subsamples parameters (check
/// every stride-th) to keep O(P) forward passes affordable in tests.
inline GradientCheckResult CheckNetworkGradient(Network& net,
                                                const Tensor& input,
                                                size_t label,
                                                double step = 1e-3,
                                                size_t stride = 1) {
  DPAUDIT_CHECK_GT(step, 0.0);
  DPAUDIT_CHECK_GT(stride, 0u);
  std::vector<float> analytic = net.PerExampleGradient(input, label);
  std::vector<float> params = net.FlatParams();
  GradientCheckResult result{0.0, 0.0, 0};
  for (size_t i = 0; i < params.size(); i += stride) {
    float original = params[i];
    params[i] = static_cast<float>(original + step);
    net.SetFlatParams(params);
    double loss_plus = net.ExampleLoss(input, label);
    params[i] = static_cast<float>(original - step);
    net.SetFlatParams(params);
    double loss_minus = net.ExampleLoss(input, label);
    params[i] = original;
    double numeric = (loss_plus - loss_minus) / (2.0 * step);
    double abs_err = std::fabs(numeric - analytic[i]);
    // The 1e-3 floor keeps exactly-zero analytic gradients (e.g. a conv bias
    // feeding a normalization layer) from reading as 100% relative error
    // against finite-difference noise.
    double denom = std::max({std::fabs(numeric), std::fabs(
                                static_cast<double>(analytic[i])), 1e-3});
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
    result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
    ++result.params_checked;
  }
  net.SetFlatParams(params);
  return result;
}

}  // namespace dpaudit

#endif  // DPAUDIT_TESTS_GRADIENT_CHECK_H_
