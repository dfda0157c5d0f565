// Tests for the obs metrics registry: exact aggregation under concurrency,
// distribution quantiles consistent with stats/, and registry scrape shape.

#include "obs/metrics.h"

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/telemetry.h"
#include "stats/summary.h"

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

TEST_F(ObsMetricsTest, GaugeLastWriteWins) {
  Gauge& gauge = MetricsRegistry::Global().GetGauge("g");
  gauge.Set(1.5);
  gauge.Set(-3.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), -3.25);
}

TEST_F(ObsMetricsTest, DistributionSummaryMatchesWelfordExactly) {
  DistributionMetric& dist =
      MetricsRegistry::Global().GetDistribution("d", 0.0, 100.0, 50);
  RunningSummary expected;
  for (int i = 0; i < 1000; ++i) {
    double x = static_cast<double>(i % 100);
    dist.Record(x);
    expected.Add(x);
  }
  DistributionMetric::Snapshot snap = dist.Snap();
  EXPECT_EQ(snap.summary.count(), expected.count());
  EXPECT_DOUBLE_EQ(snap.summary.mean(), expected.mean());
  EXPECT_DOUBLE_EQ(snap.summary.min(), expected.min());
  EXPECT_DOUBLE_EQ(snap.summary.max(), expected.max());
}

TEST_F(ObsMetricsTest, DistributionQuantilesMatchHistogramSketch) {
  // Same values through the metric and through a reference stats/ histogram:
  // the metric's quantiles must be exactly the sketch's quantiles.
  DistributionMetric& dist =
      MetricsRegistry::Global().GetDistribution("q", 0.0, 1000.0, 100);
  Histogram reference(0.0, 1000.0, 100);
  for (int i = 0; i < 10000; ++i) {
    double x = static_cast<double>((i * 7919) % 1000);
    dist.Record(x);
    reference.Add(x);
  }
  DistributionMetric::Snapshot snap = dist.Snap();
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(snap.bins.ApproxQuantile(q), reference.ApproxQuantile(q))
        << "q=" << q;
  }
  // And the sketch itself is within one bin width of the true quantile of
  // the uniform-ish stream.
  EXPECT_NEAR(snap.bins.ApproxQuantile(0.5), 500.0, 20.0);
}

TEST_F(ObsMetricsTest, DistributionConcurrentRecordsAllCounted) {
  DistributionMetric& dist =
      MetricsRegistry::Global().GetDistribution("c", 0.0, 1.0, 10);
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dist, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        dist.Record(static_cast<double>((t + i) % 10) / 10.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(dist.Snap().summary.count(), kThreads * kPerThread);
}

TEST_F(ObsMetricsTest, SnapshotSortedAndTyped) {
  MetricsRegistry::Global().GetCounter("b_total").Add(2);
  MetricsRegistry::Global().GetCounter("a_total").Add(1);
  MetricsRegistry::Global().GetGauge("z_gauge").Set(4.0);
  MetricsRegistry::Global().GetDistribution("m_dist", 0.0, 1.0, 4).Record(0.5);
  // Metrics registered by earlier tests in this process survive their reset
  // at zero; only this test's four are checked, in scrape order.
  std::vector<MetricSnapshot> snaps;
  for (MetricSnapshot& s : MetricsRegistry::Global().Snapshot()) {
    if (s.name == "a_total" || s.name == "b_total" || s.name == "z_gauge" ||
        s.name == "m_dist") {
      snaps.push_back(std::move(s));
    }
  }
  ASSERT_EQ(snaps.size(), 4u);
  EXPECT_EQ(snaps[0].name, "a_total");
  EXPECT_EQ(snaps[0].kind, MetricSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(snaps[0].value, 1.0);
  EXPECT_EQ(snaps[1].name, "b_total");
  EXPECT_EQ(snaps[2].name, "z_gauge");
  EXPECT_EQ(snaps[2].kind, MetricSnapshot::Kind::kGauge);
  EXPECT_EQ(snaps[3].name, "m_dist");
  EXPECT_EQ(snaps[3].kind, MetricSnapshot::Kind::kDistribution);
  EXPECT_EQ(snaps[3].summary.count(), 1u);
}

TEST_F(ObsMetricsTest, MacroNoOpWhenDisabled) {
  auto disabled_total = [] {
    for (const MetricSnapshot& s : MetricsRegistry::Global().Snapshot()) {
      if (s.name == "disabled_total") return s.value;
    }
    return 0.0;  // never registered counts as zero
  };
  EnableTelemetryForTest(false);
  DPAUDIT_METRIC_COUNT("disabled_total", 1);
  EnableTelemetryForTest(true);
  EXPECT_DOUBLE_EQ(disabled_total(), 0.0);
  DPAUDIT_METRIC_COUNT("disabled_total", 1);
  EXPECT_DOUBLE_EQ(disabled_total(), 1.0);
}

TEST_F(ObsMetricsTest, ResetZeroesMetricsAndKeepsCachedReferencesValid) {
  // DPAUDIT_METRIC_* sites and the pool's task-timing hook cache references
  // in function-local statics; a reset must leave them pointing at live,
  // zeroed metrics rather than freed ones.
  Counter& counter = MetricsRegistry::Global().GetCounter("reset_total");
  Gauge& gauge = MetricsRegistry::Global().GetGauge("reset_gauge");
  DistributionMetric& dist =
      MetricsRegistry::Global().GetDistribution("reset_us", 0.0, 10.0, 5);
  auto macro_site = [] { DPAUDIT_METRIC_COUNT("reset_site_total", 1); };
  counter.Add(3);
  gauge.Set(2.5);
  dist.Record(4.0);
  macro_site();
  MetricsRegistry::Global().ResetForTest();
  macro_site();
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("reset_site_total").Value(),
            1u);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  EXPECT_EQ(dist.Snap().summary.count(), 0u);

  counter.Add(2);
  gauge.Set(1.5);
  dist.Record(6.0);
  EXPECT_EQ(&MetricsRegistry::Global().GetCounter("reset_total"), &counter);
  EXPECT_EQ(counter.Value(), 2u);
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.5);
  const DistributionMetric::Snapshot snap = dist.Snap();
  EXPECT_EQ(snap.summary.count(), 1u);
  EXPECT_DOUBLE_EQ(snap.summary.mean(), 6.0);
  EXPECT_EQ(snap.bins.total(), 1u);
}

TEST_F(ObsMetricsTest, PrometheusExpositionShape) {
  MetricsRegistry::Global().GetCounter("dpaudit_things_total").Add(3);
  MetricsRegistry::Global()
      .GetGauge("dpaudit_build_info{binary=\"t\",simd=\"scalar\"}")
      .Set(1.0);
  std::ostringstream os;
  WritePrometheus(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("# TYPE dpaudit_build_info gauge"), std::string::npos);
  EXPECT_NE(out.find("dpaudit_build_info{binary=\"t\",simd=\"scalar\"} 1"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE dpaudit_things_total counter"),
            std::string::npos);
  EXPECT_NE(out.find("dpaudit_things_total 3"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace dpaudit
