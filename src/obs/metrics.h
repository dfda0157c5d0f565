// Process-wide metrics registry. Every metric is a monotonic counter.
//
// An increment is one relaxed fetch_add on the counter's atomic, so
// concurrent increments aggregate exactly (fetch_add never loses an update).
// Counters are created once through the registry and never destroyed (a test
// reset zeroes them in place), so cached references stay valid for the
// process lifetime.
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

namespace dpaudit {
namespace obs {

/// Monotonic counter. Add() is lock-free; Value() is exact.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  /// Zeroes the counter (tests only; racing Add()s may survive).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// One scraped counter.
struct MetricSnapshot {
  std::string name;
  uint64_t value = 0;
};

/// The process-wide registry. GetCounter returns the existing counter for
/// `name` or creates it; references stay valid forever.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);

  /// All counters, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every registered counter. Only for tests. Counters stay
  /// registered (a scrape lists them at zero) and are never freed, so
  /// references cached by DPAUDIT_METRIC_COUNT sites stay valid.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
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

#endif  // DPAUDIT_OBS_METRICS_H_
