#include "stats/summary.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dpaudit {

void RunningSummary::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningSummary::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningSummary::stddev() const { return std::sqrt(variance()); }

double Quantile(std::vector<double> values, double q) {
  DPAUDIT_CHECK(!values.empty());
  DPAUDIT_CHECK_GE(q, 0.0);
  DPAUDIT_CHECK_LE(q, 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  DPAUDIT_CHECK(!values.empty());
  RunningSummary s;
  for (double v : values) s.Add(v);
  return s.mean();
}

double StdDev(const std::vector<double>& values) {
  RunningSummary s;
  for (double v : values) s.Add(v);
  return s.stddev();
}

double FractionAbove(const std::vector<double>& values, double threshold) {
  if (values.empty()) return 0.0;
  size_t n = 0;
  for (double v : values) {
    if (v > threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(values.size());
}

Interval WilsonInterval(size_t successes, size_t trials, double z) {
  DPAUDIT_CHECK_GT(trials, 0u);
  DPAUDIT_CHECK_LE(successes, trials);
  double n = static_cast<double>(trials);
  double p = static_cast<double>(successes) / n;
  double z2 = z * z;
  double denom = 1.0 + z2 / n;
  double center = (p + z2 / (2.0 * n)) / denom;
  double half = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace dpaudit
