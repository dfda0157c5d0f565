// Tests for the obs metrics registry: exact counter aggregation under
// concurrency, scrape order, and the Prometheus exposition shape.

#include "obs/metrics.h"

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/telemetry.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace obs {
namespace {

class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetForTest();
    EnableTelemetryForTest(true);
  }
  void TearDown() override {
    EnableTelemetryForTest(false);
    MetricsRegistry::Global().ResetForTest();
  }
};

TEST_F(ObsMetricsTest, CounterAggregatesExactlyAcrossThreads) {
  Counter& counter = MetricsRegistry::Global().GetCounter("test_total");
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (size_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST_F(ObsMetricsTest, CounterAddN) {
  Counter& counter = MetricsRegistry::Global().GetCounter("addn_total");
  counter.Add(5);
  counter.Add(7);
  EXPECT_EQ(counter.Value(), 12u);
}

TEST_F(ObsMetricsTest, GetCounterReturnsSameInstance) {
  Counter& a = MetricsRegistry::Global().GetCounter("same");
  Counter& b = MetricsRegistry::Global().GetCounter("same");
  EXPECT_EQ(&a, &b);
  a.Add();
  EXPECT_EQ(b.Value(), 1u);
}

TEST_F(ObsMetricsTest, SnapshotSortedAndTyped) {
  MetricsRegistry::Global().GetCounter("b_total").Add(2);
  MetricsRegistry::Global().GetCounter("a_total").Add(1);
  // Counters registered by earlier tests in this process survive their
  // reset at zero; only this test's two are checked, in scrape order.
  std::vector<MetricSnapshot> snaps;
  for (MetricSnapshot& s : MetricsRegistry::Global().Snapshot()) {
    if (s.name == "a_total" || s.name == "b_total") {
      snaps.push_back(std::move(s));
    }
  }
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].name, "a_total");
  EXPECT_EQ(snaps[0].value, 1u);
  EXPECT_EQ(snaps[1].name, "b_total");
  EXPECT_EQ(snaps[1].value, 2u);
}

TEST_F(ObsMetricsTest, MacroNoOpWhenDisabled) {
  auto disabled_total = [] {
    for (const MetricSnapshot& s : MetricsRegistry::Global().Snapshot()) {
      if (s.name == "disabled_total") return s.value;
    }
    return uint64_t{0};  // never registered counts as zero
  };
  EnableTelemetryForTest(false);
  DPAUDIT_METRIC_COUNT("disabled_total", 1);
  EnableTelemetryForTest(true);
  EXPECT_EQ(disabled_total(), 0u);
  DPAUDIT_METRIC_COUNT("disabled_total", 1);
  EXPECT_EQ(disabled_total(), 1u);
}

TEST_F(ObsMetricsTest, ResetZeroesMetricsAndKeepsCachedReferencesValid) {
  // DPAUDIT_METRIC_COUNT sites cache references in function-local statics;
  // a reset must leave them pointing at live, zeroed counters rather than
  // freed ones.
  Counter& counter = MetricsRegistry::Global().GetCounter("reset_total");
  auto macro_site = [] { DPAUDIT_METRIC_COUNT("reset_site_total", 1); };
  counter.Add(3);
  macro_site();
  MetricsRegistry::Global().ResetForTest();
  macro_site();
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("reset_site_total").Value(),
            1u);
  EXPECT_EQ(counter.Value(), 0u);

  counter.Add(2);
  EXPECT_EQ(&MetricsRegistry::Global().GetCounter("reset_total"), &counter);
  EXPECT_EQ(counter.Value(), 2u);
}

TEST_F(ObsMetricsTest, PrometheusExpositionShape) {
  MetricsRegistry::Global().GetCounter("dpaudit_things_total").Add(3);
  InitTelemetry("/some/dir/obs_metrics_test", TelemetryOptions{});
  SetDefaultThreadCountOverride(3);
  SetBatchLanesOverride(5);
  std::ostringstream os;
  WritePrometheus(os);
  SetDefaultThreadCountOverride(0);
  SetBatchLanesOverride(-1);
  const std::string out = os.str();
  EXPECT_NE(out.find("# TYPE dpaudit_things_total counter\n"
                     "dpaudit_things_total 3\n"),
            std::string::npos);
  // The build_info gauge follows the counters, one TYPE line and one sample.
  const std::string build_info =
      std::string("# TYPE dpaudit_build_info gauge\n"
                  "dpaudit_build_info{binary=\"obs_metrics_test\",simd=\"") +
      ActiveSimdDispatch() + "\",threads=\"3\",batch_lanes=\"5\",commit=\"" +
      BuildGitCommit() + "\"} 1\n";
  const size_t at = out.find(build_info);
  ASSERT_NE(at, std::string::npos) << out;
  EXPECT_LT(out.find("dpaudit_things_total 3"), at);
  EXPECT_EQ(out.find("# TYPE dpaudit_build_info", at + 1), std::string::npos);
  EXPECT_EQ(out.find(" summary\n"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace dpaudit
