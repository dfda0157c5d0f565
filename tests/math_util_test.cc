#include "util/math_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace dpaudit {
namespace {

TEST(LogAddExpTest, MatchesDirectComputationInSafeRange) {
  EXPECT_NEAR(LogAddExp(0.0, 0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(LogAddExp(1.0, 2.0), std::log(std::exp(1.0) + std::exp(2.0)),
              1e-12);
}

TEST(LogAddExpTest, HandlesExtremeMagnitudes) {
  // exp(1000) overflows double, but logaddexp must not.
  EXPECT_NEAR(LogAddExp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogAddExp(1000.0, -1000.0), 1000.0, 1e-9);
}

TEST(LogAddExpTest, NegativeInfinityIsIdentity) {
  double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(LogAddExp(ninf, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(LogAddExp(3.0, ninf), 3.0);
}

TEST(LogSumExpTest, EmptyIsNegativeInfinity) {
  EXPECT_TRUE(std::isinf(LogSumExp({})));
  EXPECT_LT(LogSumExp({}), 0.0);
}

TEST(LogSumExpTest, MatchesPairwise) {
  std::vector<double> xs = {0.5, -1.0, 2.0, 0.0};
  double direct = 0.0;
  for (double x : xs) direct += std::exp(x);
  EXPECT_NEAR(LogSumExp(xs), std::log(direct), 1e-12);
}

class SigmoidLogitTest : public ::testing::TestWithParam<double> {};

TEST_P(SigmoidLogitTest, RoundTrip) {
  double x = GetParam();
  EXPECT_NEAR(Logit(Sigmoid(x)), x, 1e-9 * std::max(1.0, std::fabs(x)));
}

INSTANTIATE_TEST_SUITE_P(Range, SigmoidLogitTest,
                         ::testing::Values(-10.0, -2.2, -0.1, 0.0, 0.1, 1.1,
                                           2.2, 4.6, 10.0));

TEST(SigmoidLogitTest, RoundTripDegradesGracefullyNearSaturation) {
  // At |x| = 30, Sigmoid is within 1e-13 of 1 and the round trip loses
  // precision but must stay within ~0.1% — enough for belief tracking.
  EXPECT_NEAR(Logit(Sigmoid(30.0)), 30.0, 0.05);
  EXPECT_NEAR(Logit(Sigmoid(-30.0)), -30.0, 0.05);
}

TEST(SigmoidTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.2), 0.9002495, 1e-6);  // rho_beta = 0.9 at eps = 2.2
  EXPECT_NEAR(Sigmoid(-2.2), 1.0 - 0.9002495, 1e-6);
}

TEST(SigmoidTest, SaturatesWithoutNan) {
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(ClampTest, Clamps) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.25, 0.0, 1.0), 0.25);
}

TEST(AlmostEqualTest, Tolerances) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(AlmostEqual(1.0, 1.001));
  EXPECT_TRUE(AlmostEqual(1e10, 1e10 * (1 + 1e-10)));
}

TEST(KahanSumTest, AccurateForIllConditionedSeries) {
  // 1 followed by 1e8 copies of 1e-8 sums to 2 exactly in exact arithmetic.
  std::vector<double> xs;
  xs.push_back(1.0);
  for (int i = 0; i < 10000000; ++i) xs.push_back(1e-7);
  EXPECT_NEAR(KahanSum(xs), 2.0, 1e-9);
}

TEST(L2NormTest, KnownValues) {
  EXPECT_DOUBLE_EQ(L2Norm(std::vector<float>{3.0f, 4.0f}), 5.0);
  EXPECT_DOUBLE_EQ(L2Norm(std::vector<double>{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(L2Norm(std::vector<float>{}), 0.0);
}

// The clipped-gradient accumulation is dispatched to vector code; it must
// round exactly like its scalar definition.
TEST(AccumulateScaledTest, MatchesScalarDefinition) {
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 13u, 1027u}) {
    for (double scale : {1.0, 0.3, 1e-3, 7.25}) {
      std::vector<float> g(n);
      std::vector<float> base(n);
      for (size_t i = 0; i < n; ++i) {
        g[i] = std::sin(static_cast<float>(i) * 1.3f) * 0.7f;
        base[i] = std::cos(static_cast<float>(i) * 0.9f);
      }
      std::vector<float> ref = base;
      for (size_t i = 0; i < n; ++i) {
        ref[i] += static_cast<float>(scale * g[i]);
      }
      std::vector<float> single = base;
      AccumulateScaled(single.data(), g.data(), n, scale);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ref[i], single[i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(L2DistanceTest, KnownValues) {
  std::vector<float> a = {1.0f, 2.0f, 2.0f};
  std::vector<float> b = {1.0f, 0.0f, 0.0f};
  EXPECT_NEAR(L2Distance(a, b), std::sqrt(8.0), 1e-12);
  EXPECT_DOUBLE_EQ(L2Distance(a, a), 0.0);
}

}  // namespace
}  // namespace dpaudit
