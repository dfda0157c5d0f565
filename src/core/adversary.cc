#include "core/adversary.h"

#include <algorithm>
#include <cmath>

#include "dp/mechanism.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace dpaudit {

DiAdversary::DiAdversary(double prior_belief_d, double sampling_rate)
    : tracker_(prior_belief_d), sampling_rate_(sampling_rate) {
  DPAUDIT_CHECK(sampling_rate > 0.0 && sampling_rate <= 1.0);
}

void DiAdversary::OnStep(size_t /*step*/, const std::vector<float>& sum_d,
                         const std::vector<float>& sum_dprime,
                         const std::vector<float>& released, double sigma) {
  GaussianMechanism mechanism(sigma);
  double log_p_d = 0.0;
  double log_p_dprime = 0.0;
  {
    DPAUDIT_SPAN("adversary_llr");
    // The adversary is the observer side of the hypothesis test: it only
    // scores densities of sums the training loop already clipped and
    // perturbed upstream (core/dpsgd.cc), so no clip helper appears here.
    // NOLINTNEXTLINE(dpaudit-mechanism-flow)
    mechanism.LogDensityPair(released, sum_d, sum_dprime, &log_p_d,
                             &log_p_dprime);
    if (sampling_rate_ < 1.0) {
      log_p_d = LogAddExp(std::log(sampling_rate_) + log_p_d,
                          std::log1p(-sampling_rate_) + log_p_dprime);
    }
  }
  DPAUDIT_SPAN("belief_update");
  log_density_d_.push_back(log_p_d);
  log_density_dprime_.push_back(log_p_dprime);
  tracker_.Observe(log_p_d, log_p_dprime);
}

double DiAdversary::MaxBeliefD() const {
  const std::vector<double>& history = tracker_.history();
  return *std::max_element(history.begin(), history.end());
}

}  // namespace dpaudit
