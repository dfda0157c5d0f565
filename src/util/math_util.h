// Scalar numeric helpers shared across the library.

#ifndef DPAUDIT_UTIL_MATH_UTIL_H_
#define DPAUDIT_UTIL_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace dpaudit {

inline constexpr double kPi = 3.14159265358979323846;

/// log(exp(a) + exp(b)) without overflow.
inline double LogAddExp(double a, double b) {
  if (std::isinf(a) && a < 0) return b;
  if (std::isinf(b) && b < 0) return a;
  double hi = std::max(a, b);
  double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

/// log(sum_i exp(x_i)) without overflow. Returns -inf for an empty input.
double LogSumExp(const std::vector<double>& xs);

/// Logistic sigmoid 1 / (1 + e^{-x}), stable for large |x|.
inline double Sigmoid(double x) {
  if (x >= 0.0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

/// Inverse of Sigmoid: ln(p / (1 - p)). Requires p in (0, 1).
inline double Logit(double p) { return std::log(p) - std::log1p(-p); }

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return std::min(hi, std::max(lo, x));
}

/// True if |a - b| <= atol + rtol * max(|a|, |b|).
inline bool AlmostEqual(double a, double b, double rtol = 1e-9,
                        double atol = 1e-12) {
  return std::fabs(a - b) <=
         atol + rtol * std::max(std::fabs(a), std::fabs(b));
}

/// Sum with Kahan compensation; deterministic and accurate for long series.
double KahanSum(const std::vector<double>& xs);

/// Euclidean norm of a vector. The float overloads accumulate in double with
/// a single left-to-right chain, so every caller (sequential or parallel)
/// produces bit-identical norms for the same data.
double L2Norm(const std::vector<float>& v);
double L2Norm(const std::vector<double>& v);
double L2Norm(const float* v, size_t n);

/// The DPSGD clip factor min(1, C / ||g||) applied to a per-example gradient
/// with pre-clip norm `norm` (Abadi et al.). Shared by every clipping path so
/// the scale arithmetic is identical everywhere.
inline double ClipScale(double norm, double clip_norm) {
  return norm > clip_norm ? clip_norm / norm : 1.0;
}

/// sum[i] += float(scale * g[i]) for i in [0, n) — the clipped-gradient
/// accumulation step of DPSGD, kept in one place so the sequential reference,
/// the parallel engine, and the neighbor-sharing path round identically.
/// The buffers must not overlap.
void AccumulateScaled(float* sum, const float* g, size_t n, double scale);

/// Euclidean distance ||a - b||; requires equal sizes.
double L2Distance(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace dpaudit

#endif  // DPAUDIT_UTIL_MATH_UTIL_H_
