#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace dpaudit {

Histogram::Histogram(double lo, double hi, size_t num_bins)
    : lo_(lo), hi_(hi), counts_(num_bins, 0) {
  DPAUDIT_CHECK_GT(num_bins, 0u);
  DPAUDIT_CHECK_LT(lo, hi);
  width_ = (hi - lo) / static_cast<double>(num_bins);
}

void Histogram::Add(double x) {
  double pos = (x - lo_) / width_;
  long bin = static_cast<long>(std::floor(pos));
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

void Histogram::AddAll(const std::vector<double>& xs) {
  for (double x : xs) Add(x);
}

double Histogram::bin_center(size_t i) const {
  DPAUDIT_CHECK_LT(i, counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::bin_fraction(size_t i) const {
  DPAUDIT_CHECK_LT(i, counts_.size());
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[i]) / static_cast<double>(total_);
}

void Histogram::RenderText(std::ostream& os, size_t max_bar) const {
  size_t peak = 0;
  for (size_t c : counts_) peak = std::max(peak, c);
  for (size_t i = 0; i < counts_.size(); ++i) {
    double bin_lo = lo_ + static_cast<double>(i) * width_;
    double bin_hi = bin_lo + width_;
    size_t bar = peak == 0 ? 0 : counts_[i] * max_bar / peak;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "[%9.4f, %9.4f) %6zu  ", bin_lo, bin_hi,
                  counts_[i]);
    os << buf << std::string(bar, '#') << "\n";
  }
}

}  // namespace dpaudit
