#include "util/math_util.h"

#include <limits>

#include "util/logging.h"
#include "util/simd.h"

namespace dpaudit {

double LogSumExp(const std::vector<double>& xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  double hi = *std::max_element(xs.begin(), xs.end());
  if (std::isinf(hi)) return hi;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - hi);
  return hi + std::log(sum);
}

double KahanSum(const std::vector<double>& xs) {
  double sum = 0.0;
  double carry = 0.0;
  for (double x : xs) {
    double y = x - carry;
    double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }
  return sum;
}

double L2Norm(const std::vector<float>& v) {
  return L2Norm(v.data(), v.size());
}

double L2Norm(const float* v, size_t n) {
  double sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sq += static_cast<double>(v[i]) * v[i];
  }
  return std::sqrt(sq);
}

namespace {

// One body for the portable call and the AVX2 wrapper. Each element is an
// exact widening, one rounded double multiply, one rounding to float and one
// float add, in that order whatever the vector width, so every path rounds
// identically.
DPAUDIT_LANE_INLINE void AccumulateScaledBody(float* __restrict__ sum,
                                              const float* __restrict__ g,
                                              size_t n, double scale) {
  for (size_t i = 0; i < n; ++i) sum[i] += static_cast<float>(scale * g[i]);
}

#if defined(DPAUDIT_X86_DISPATCH)
__attribute__((target("avx2"))) void AccumulateScaledAvx2(float* sum,
                                                          const float* g,
                                                          size_t n,
                                                          double scale) {
  AccumulateScaledBody(sum, g, n, scale);
}
#endif

}  // namespace

void AccumulateScaled(float* sum, const float* g, size_t n, double scale) {
#if defined(DPAUDIT_X86_DISPATCH)
  if (HasAvx2()) {
    AccumulateScaledAvx2(sum, g, n, scale);
    return;
  }
#endif
  AccumulateScaledBody(sum, g, n, scale);
}

double L2Norm(const std::vector<double>& v) {
  double sq = 0.0;
  for (double x : v) sq += x * x;
  return std::sqrt(sq);
}

double L2Distance(const std::vector<float>& a, const std::vector<float>& b) {
  DPAUDIT_CHECK_EQ(a.size(), b.size());
  double sq = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    sq += d * d;
  }
  return std::sqrt(sq);
}

}  // namespace dpaudit
