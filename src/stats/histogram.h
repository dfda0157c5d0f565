// Fixed-bin histogram used to report the belief / sensitivity / accuracy
// distributions of Figures 4-7 as text.

#ifndef DPAUDIT_STATS_HISTOGRAM_H_
#define DPAUDIT_STATS_HISTOGRAM_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace dpaudit {

/// Equal-width histogram over [lo, hi] with `num_bins` bins. Values outside
/// the range clamp into the first / last bin so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t num_bins);

  void Add(double x);
  void AddAll(const std::vector<double>& xs);

  size_t total() const { return total_; }
  size_t num_bins() const { return counts_.size(); }
  size_t bin_count(size_t i) const { return counts_[i]; }

  /// Center of bin i.
  double bin_center(size_t i) const;

  /// Fraction of mass in bin i (0 when empty).
  double bin_fraction(size_t i) const;

  /// Renders `[lo, hi) count  ###...` bars, one line per bin, scaled so the
  /// largest bin gets `max_bar` characters.
  void RenderText(std::ostream& os, size_t max_bar = 50) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

}  // namespace dpaudit

#endif  // DPAUDIT_STATS_HISTOGRAM_H_
