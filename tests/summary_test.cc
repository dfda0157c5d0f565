#include "stats/summary.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dpaudit {
namespace {

TEST(RunningSummaryTest, EmptySummary) {
  RunningSummary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningSummaryTest, KnownMoments) {
  RunningSummary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningSummaryTest, SingleValue) {
  RunningSummary s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
}

TEST(QuantileTest, Interpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 5.0);
}

TEST(QuantileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
}

TEST(MeanStdDevTest, Basics) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 1.0);
  EXPECT_DOUBLE_EQ(StdDev({42.0}), 0.0);
}

TEST(FractionAboveTest, CountsStrictly) {
  std::vector<double> xs = {0.1, 0.5, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(FractionAbove(xs, 0.5), 0.25);
  EXPECT_DOUBLE_EQ(FractionAbove(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(FractionAbove({}, 0.0), 0.0);
}

TEST(WilsonIntervalTest, CoversPointEstimate) {
  Interval ci = WilsonInterval(30, 100);
  EXPECT_LT(ci.lo, 0.3);
  EXPECT_GT(ci.hi, 0.3);
  EXPECT_GE(ci.lo, 0.0);
  EXPECT_LE(ci.hi, 1.0);
}

TEST(WilsonIntervalTest, ExtremesStayInUnitInterval) {
  Interval zero = WilsonInterval(0, 50);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  Interval all = WilsonInterval(50, 50);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  EXPECT_LT(all.lo, 1.0);
}

TEST(WilsonIntervalTest, ShrinksWithSampleSize) {
  Interval small = WilsonInterval(5, 10);
  Interval large = WilsonInterval(500, 1000);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

}  // namespace
}  // namespace dpaudit
