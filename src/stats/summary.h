// Streaming and batch summary statistics for experiment outputs.

#ifndef DPAUDIT_STATS_SUMMARY_H_
#define DPAUDIT_STATS_SUMMARY_H_

#include <cstddef>
#include <limits>
#include <vector>

namespace dpaudit {

/// Welford's online algorithm: numerically stable running mean / variance,
/// plus min and max.
class RunningSummary {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// The q-quantile (q in [0, 1]) of `values` by linear interpolation between
/// order statistics. Copies and sorts internally; requires non-empty input.
double Quantile(std::vector<double> values, double q);

/// Mean of `values`; requires non-empty input.
double Mean(const std::vector<double>& values);

/// Unbiased sample standard deviation; 0 for fewer than two values.
double StdDev(const std::vector<double>& values);

/// Fraction of values strictly greater than `threshold`.
double FractionAbove(const std::vector<double>& values, double threshold);

/// Wilson score interval for a binomial proportion: given `successes` out of
/// `trials`, returns [lo, hi] covering the true rate with ~95% confidence
/// (z = 1.96). Requires trials > 0.
struct Interval {
  double lo;
  double hi;
};
Interval WilsonInterval(size_t successes, size_t trials, double z = 1.96);

}  // namespace dpaudit

#endif  // DPAUDIT_STATS_SUMMARY_H_
