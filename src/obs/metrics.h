// Process-wide metrics registry: thread-striped counters, gauges, and
// distribution metrics, aggregated exactly on scrape.
//
// Counters stripe a fixed array of cache-line-padded atomics; an increment is
// one relaxed fetch_add on the calling thread's stripe and a scrape sums the
// stripes, so concurrent increments aggregate exactly (fetch_add never loses
// an update). Distribution metrics pair stats/ Welford summaries with stats/
// histogram binning per stripe and merge them on scrape. Metric objects are
// created once through the registry and never destroyed (a test reset
// zeroes them in place), so cached references stay valid for the process
// lifetime.
//
// Instrumentation sites on hot paths use DPAUDIT_METRIC_COUNT, which reduces
// to a single relaxed atomic load when telemetry is disabled.

#ifndef DPAUDIT_OBS_METRICS_H_
#define DPAUDIT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "stats/histogram.h"
#include "stats/summary.h"

namespace dpaudit {
namespace obs {

/// Number of independent cells each metric stripes its state across. Threads
/// are assigned stripes round-robin on first use.
constexpr size_t kMetricStripes = 16;

namespace internal {
/// This thread's stripe index, assigned once per thread.
size_t CurrentStripe();
}  // namespace internal

/// Monotonic counter. Add() is lock-free; Value() is exact.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    cells_[internal::CurrentStripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every stripe (tests only; racing Add()s may survive).
  void Reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kMetricStripes];
};

/// Last-write-wins scalar (build info, configuration values).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Value distribution: per-stripe Welford summary (exact count/mean/min/max)
/// plus equal-width histogram bins for quantile estimates, merged on scrape.
class DistributionMetric {
 public:
  DistributionMetric(double lo, double hi, size_t num_bins);
  DistributionMetric(const DistributionMetric&) = delete;
  DistributionMetric& operator=(const DistributionMetric&) = delete;

  void Record(double x);

  struct Snapshot {
    RunningSummary summary;
    Histogram bins;
  };
  Snapshot Snap() const;

  /// Empties every stripe's summary and bins, keeping the layout.
  void Reset();

 private:
  struct Cell {
    Cell(double lo, double hi, size_t num_bins) : bins(lo, hi, num_bins) {}
    std::mutex mu;
    RunningSummary summary;
    Histogram bins;
  };
  double lo_;
  double hi_;
  size_t num_bins_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

/// One scraped metric, already aggregated across stripes.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kDistribution };
  Kind kind = Kind::kCounter;
  std::string name;  // may carry {label="..."} suffixes for the exposition
  double value = 0.0;                     // counter / gauge
  RunningSummary summary;                 // distribution
  double p50 = 0.0, p90 = 0.0, p99 = 0.0; // distribution quantile estimates
};

/// The process-wide registry. Get* returns the existing metric for `name` or
/// creates it; references stay valid forever.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  DistributionMetric& GetDistribution(const std::string& name, double lo,
                                      double hi, size_t num_bins);

  /// All metrics, sorted by name (counters, then gauges, then
  /// distributions).
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every registered metric. Only for tests. Metrics stay
  /// registered (a scrape lists them at zero) and are never freed, so
  /// references cached by DPAUDIT_METRIC_* sites and by pool tasks still
  /// running stay valid.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<DistributionMetric>> distributions_;
};

}  // namespace obs
}  // namespace dpaudit

/// Counts `n` into the named counter when telemetry is enabled; one relaxed
/// atomic load otherwise. The registry lookup happens once per site.
#define DPAUDIT_METRIC_COUNT(name, n)                                     \
  do {                                                                    \
    if (::dpaudit::obs::TelemetryEnabled()) {                             \
      static ::dpaudit::obs::Counter& dpaudit_metric_counter =            \
          ::dpaudit::obs::MetricsRegistry::Global().GetCounter(name);     \
      dpaudit_metric_counter.Add(n);                                      \
    }                                                                     \
  } while (0)

/// Records one sample into a named distribution; same disabled-site cost as
/// DPAUDIT_METRIC_COUNT (one branch on the telemetry flag). The (lo, hi,
/// bins) histogram layout is fixed by the first use of the name.
#define DPAUDIT_METRIC_DISTRIBUTION(name, lo, hi, bins, value)            \
  do {                                                                    \
    if (::dpaudit::obs::TelemetryEnabled()) {                             \
      static ::dpaudit::obs::DistributionMetric& dpaudit_metric_dist =    \
          ::dpaudit::obs::MetricsRegistry::Global().GetDistribution(      \
              name, lo, hi, bins);                                        \
      dpaudit_metric_dist.Record(value);                                  \
    }                                                                     \
  } while (0)

#endif  // DPAUDIT_OBS_METRICS_H_
