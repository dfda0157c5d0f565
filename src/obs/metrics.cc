#include "obs/metrics.h"

namespace dpaudit {
namespace obs {

namespace internal {

size_t CurrentStripe() {
  static std::atomic<size_t> next{0};
  thread_local size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
  return stripe;
}

}  // namespace internal

DistributionMetric::DistributionMetric(double lo, double hi, size_t num_bins)
    : lo_(lo), hi_(hi), num_bins_(num_bins) {
  cells_.reserve(kMetricStripes);
  for (size_t i = 0; i < kMetricStripes; ++i) {
    cells_.push_back(std::make_unique<Cell>(lo, hi, num_bins));
  }
}

void DistributionMetric::Record(double x) {
  Cell& cell = *cells_[internal::CurrentStripe()];
  std::lock_guard<std::mutex> lock(cell.mu);
  cell.summary.Add(x);
  cell.bins.Add(x);
}

DistributionMetric::Snapshot DistributionMetric::Snap() const {
  Snapshot snap{RunningSummary(), Histogram(lo_, hi_, num_bins_)};
  for (const std::unique_ptr<Cell>& cell : cells_) {
    std::lock_guard<std::mutex> lock(cell->mu);
    snap.summary.Merge(cell->summary);
    snap.bins.MergeFrom(cell->bins);
  }
  return snap;
}

void DistributionMetric::Reset() {
  for (const std::unique_ptr<Cell>& cell : cells_) {
    std::lock_guard<std::mutex> lock(cell->mu);
    cell->summary = RunningSummary();
    cell->bins = Histogram(lo_, hi_, num_bins_);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

DistributionMetric& MetricsRegistry::GetDistribution(const std::string& name,
                                                     double lo, double hi,
                                                     size_t num_bins) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<DistributionMetric>& slot = distributions_[name];
  if (slot == nullptr) {
    slot = std::make_unique<DistributionMetric>(lo, hi, num_bins);
  }
  return *slot;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + distributions_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot snap;
    snap.kind = MetricSnapshot::Kind::kCounter;
    snap.name = name;
    snap.value = static_cast<double>(counter->Value());
    out.push_back(std::move(snap));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot snap;
    snap.kind = MetricSnapshot::Kind::kGauge;
    snap.name = name;
    snap.value = gauge->Value();
    out.push_back(std::move(snap));
  }
  for (const auto& [name, dist] : distributions_) {
    DistributionMetric::Snapshot merged = dist->Snap();
    MetricSnapshot snap;
    snap.kind = MetricSnapshot::Kind::kDistribution;
    snap.name = name;
    snap.summary = merged.summary;
    if (merged.summary.count() > 0) {
      snap.p50 = merged.bins.ApproxQuantile(0.5);
      snap.p90 = merged.bins.ApproxQuantile(0.9);
      snap.p99 = merged.bins.ApproxQuantile(0.99);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Set(0.0);
  for (auto& [name, dist] : distributions_) dist->Reset();
}

}  // namespace obs
}  // namespace dpaudit
