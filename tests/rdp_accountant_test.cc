#include "dp/rdp_accountant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace dpaudit {
namespace {

TEST(GaussianRdpTest, ClosedForm) {
  // eps_RDP(alpha) = alpha Df^2 / (2 sigma^2)  (Eq. 3).
  EXPECT_DOUBLE_EQ(GaussianRdpEpsilon(2.0, 1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(GaussianRdpEpsilon(4.0, 2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(GaussianRdpEpsilon(4.0, 2.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(GaussianRdpEpsilonFromNoiseMultiplier(3.0, 1.5),
                   3.0 / (2.0 * 2.25));
}

TEST(RdpAccountantTest, SingleStepMatchesManualMinimization) {
  const double z = 1.3;
  const double delta = 1e-5;
  RdpAccountant accountant;
  accountant.AddGaussianSteps(z);
  double expected = std::numeric_limits<double>::infinity();
  for (double alpha : accountant.orders()) {
    double eps = alpha / (2.0 * z * z) + std::log(1.0 / delta) / (alpha - 1.0);
    expected = std::min(expected, eps);
  }
  EXPECT_NEAR(*accountant.GetEpsilon(delta), expected, 1e-12);
}

TEST(RdpAccountantTest, CompositionIsAdditiveInRdp) {
  RdpAccountant one;
  one.AddGaussianSteps(1.0, 1);
  RdpAccountant ten;
  ten.AddGaussianSteps(1.0, 10);
  for (size_t i = 0; i < one.orders().size(); ++i) {
    EXPECT_NEAR(ten.accumulated_rdp()[i], 10.0 * one.accumulated_rdp()[i],
                1e-12);
  }
  EXPECT_EQ(ten.steps(), 10u);
}

TEST(RdpAccountantTest, EpsilonGrowsSublinearlyInSteps) {
  // RDP composition of k Gaussian steps costs ~sqrt(k), far below the k of
  // basic composition — the Section 5.2 claim.
  const double delta = 1e-5;
  RdpAccountant one;
  one.AddGaussianSteps(2.0, 1);
  RdpAccountant hundred;
  hundred.AddGaussianSteps(2.0, 100);
  double eps1 = *one.GetEpsilon(delta);
  double eps100 = *hundred.GetEpsilon(delta);
  EXPECT_GT(eps100, eps1);
  EXPECT_LT(eps100, 100.0 * eps1);
  EXPECT_LT(eps100, 25.0 * eps1);  // strictly sublinear
}

TEST(RdpAccountantTest, MoreNoiseLessEpsilon) {
  const double delta = 1e-5;
  RdpAccountant low_noise;
  low_noise.AddGaussianSteps(0.8, 30);
  RdpAccountant high_noise;
  high_noise.AddGaussianSteps(3.0, 30);
  EXPECT_GT(*low_noise.GetEpsilon(delta), *high_noise.GetEpsilon(delta));
}

TEST(RdpAccountantTest, AddRdpHeterogeneousSteps) {
  RdpAccountant a;
  a.AddGaussianSteps(1.0);
  a.AddGaussianSteps(2.0);
  RdpAccountant b;
  std::vector<double> rdp1;
  std::vector<double> rdp2;
  for (double alpha : b.orders()) {
    rdp1.push_back(GaussianRdpEpsilonFromNoiseMultiplier(alpha, 1.0));
    rdp2.push_back(GaussianRdpEpsilonFromNoiseMultiplier(alpha, 2.0));
  }
  b.AddRdp(rdp1);
  b.AddRdp(rdp2);
  EXPECT_NEAR(*a.GetEpsilon(1e-5), *b.GetEpsilon(1e-5), 1e-12);
}

TEST(RdpAccountantTest, GetDeltaInvertsGetEpsilon) {
  RdpAccountant accountant;
  accountant.AddGaussianSteps(1.5, 30);
  const double delta = 1e-4;
  double eps = *accountant.GetEpsilon(delta);
  double recovered_delta = *accountant.GetDelta(eps);
  EXPECT_LE(recovered_delta, delta * 1.0001);
}

TEST(RdpAccountantTest, OptimalOrderIsInGrid) {
  RdpAccountant accountant;
  accountant.AddGaussianSteps(1.1, 30);
  double order = *accountant.GetOptimalOrder(1e-5);
  bool found = false;
  for (double a : accountant.orders()) {
    if (a == order) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RdpAccountantTest, RejectsBadInputs) {
  RdpAccountant accountant;
  accountant.AddGaussianSteps(1.0);
  EXPECT_FALSE(accountant.GetEpsilon(0.0).ok());
  EXPECT_FALSE(accountant.GetEpsilon(1.0).ok());
  EXPECT_FALSE(accountant.GetDelta(0.0).ok());
  EXPECT_FALSE(ComposedEpsilonForNoiseMultiplier(0.0, 1e-5, 10).ok());
  EXPECT_FALSE(ComposedEpsilonForNoiseMultiplier(1.0, 1e-5, 0).ok());
  EXPECT_FALSE(NoiseMultiplierForTargetEpsilon(0.0, 1e-5, 10).ok());
  EXPECT_FALSE(NoiseMultiplierForTargetEpsilon(1.0, 0.0, 10).ok());
}

class NoiseCalibrationRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double, size_t>> {};

TEST_P(NoiseCalibrationRoundTrip, BisectionHitsTarget) {
  auto [target_eps, delta, steps] = GetParam();
  StatusOr<double> z = NoiseMultiplierForTargetEpsilon(target_eps, delta,
                                                       steps);
  ASSERT_TRUE(z.ok()) << z.status();
  double achieved = *ComposedEpsilonForNoiseMultiplier(*z, delta, steps);
  EXPECT_NEAR(achieved, target_eps, 1e-6 * target_eps + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, NoiseCalibrationRoundTrip,
    ::testing::Combine(::testing::Values(0.08, 0.12, 1.1, 2.2, 4.6),
                       ::testing::Values(0.001, 0.01),
                       ::testing::Values(size_t{1}, size_t{30})));

// Section 5.2: for the same total budget, RDP composition admits much less
// noise (equivalently: for the same noise, RDP certifies a smaller epsilon
// than basic composition would).
TEST(CompositionComparisonTest, RdpBeatsSequentialForManySteps) {
  const size_t k = 30;
  const double delta = 0.001;
  const double z = 2.0;  // per-step noise multiplier
  // Basic composition: per-step epsilon from Eq. 2 at per-step delta/k.
  double per_step_delta = delta / static_cast<double>(k);
  double per_step_eps =
      std::sqrt(2.0 * std::log(1.25 / per_step_delta)) / z;
  double sequential_eps = per_step_eps * static_cast<double>(k);
  // RDP composition of the same mechanism sequence.
  RdpAccountant accountant;
  accountant.AddGaussianSteps(z, k);
  double rdp_eps = *accountant.GetEpsilon(delta);
  EXPECT_LT(rdp_eps, sequential_eps);
  EXPECT_LT(rdp_eps, 0.5 * sequential_eps);  // decisively better
}

// ---------- subsampled RDP accountant ----------

TEST(SampledGaussianRdpTest, ReducesToGaussianAtFullSampling) {
  for (size_t alpha : {2, 4, 16}) {
    EXPECT_NEAR(SampledGaussianRdpEpsilon(alpha, 1.0, 1.3),
                GaussianRdpEpsilonFromNoiseMultiplier(
                    static_cast<double>(alpha), 1.3),
                1e-12);
  }
}

TEST(SampledGaussianRdpTest, AmplificationBySubsampling) {
  // q < 1 must cost strictly less than q = 1 at every integer order.
  for (size_t alpha : {2, 3, 8, 32}) {
    double full = SampledGaussianRdpEpsilon(alpha, 1.0, 1.5);
    double half = SampledGaussianRdpEpsilon(alpha, 0.5, 1.5);
    double tenth = SampledGaussianRdpEpsilon(alpha, 0.1, 1.5);
    EXPECT_LT(half, full);
    EXPECT_LT(tenth, half);
    EXPECT_GE(tenth, 0.0);
  }
}

TEST(SampledGaussianRdpTest, MatchesManualAlphaTwoComputation) {
  // alpha = 2: eps = ln((1-q)^2 + 2q(1-q) + q^2 e^{1/z^2}).
  const double q = 0.3;
  const double z = 1.7;
  double manual = std::log((1 - q) * (1 - q) + 2 * q * (1 - q) +
                           q * q * std::exp(1.0 / (z * z)));
  EXPECT_NEAR(SampledGaussianRdpEpsilon(2, q, z), manual, 1e-12);
}

TEST(SampledGaussianRdpTest, SmallQScalesQuadratically) {
  // For small q the leading term is ~ alpha q^2 / z^2-ish: quartering q
  // should shrink eps by roughly 16x.
  double e1 = SampledGaussianRdpEpsilon(4, 0.04, 2.0);
  double e2 = SampledGaussianRdpEpsilon(4, 0.01, 2.0);
  EXPECT_NEAR(e1 / e2, 16.0, 3.0);
}

TEST(RdpAccountantTest, SampledStepsExcludeFractionalOrders) {
  RdpAccountant accountant;
  accountant.AddSampledGaussianSteps(0.2, 1.5, 10);
  // Conversion still works (integer orders remain finite).
  auto eps = accountant.GetEpsilon(1e-5);
  ASSERT_TRUE(eps.ok());
  EXPECT_TRUE(std::isfinite(*eps));
  // The optimal order must be an integer.
  double order = *accountant.GetOptimalOrder(1e-5);
  EXPECT_NEAR(order, std::round(order), 1e-9);
}

TEST(RdpAccountantTest, SubsamplingSavesEpsilonOverFullBatch) {
  const double delta = 1e-5;
  RdpAccountant full;
  full.AddGaussianSteps(1.5, 100);
  RdpAccountant sampled;
  sampled.AddSampledGaussianSteps(0.1, 1.5, 100);
  EXPECT_LT(*sampled.GetEpsilon(delta), *full.GetEpsilon(delta));
}

TEST(SampledCalibrationTest, BisectionHitsTarget) {
  const double target = 2.2;
  const double delta = 1e-4;
  const size_t steps = 50;
  const double q = 0.25;
  auto z = SampledNoiseMultiplierForTargetEpsilon(target, delta, steps, q);
  ASSERT_TRUE(z.ok()) << z.status();
  double achieved =
      *ComposedEpsilonForSampledNoiseMultiplier(q, *z, delta, steps);
  EXPECT_NEAR(achieved, target, 1e-5 * target);
  // Subsampling lets the same budget run with less noise than full batch.
  double z_full = *NoiseMultiplierForTargetEpsilon(target, delta, steps);
  EXPECT_LT(*z, z_full);
}

TEST(SampledCalibrationTest, RejectsInvalid) {
  EXPECT_FALSE(
      SampledNoiseMultiplierForTargetEpsilon(1.0, 1e-4, 10, 0.0).ok());
  EXPECT_FALSE(
      SampledNoiseMultiplierForTargetEpsilon(1.0, 1e-4, 10, 1.5).ok());
  EXPECT_FALSE(
      ComposedEpsilonForSampledNoiseMultiplier(0.5, 0.0, 1e-4, 10).ok());
}

}  // namespace
}  // namespace dpaudit
