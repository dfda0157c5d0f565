#include "core/auditor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/dpsgd.h"
#include "core/scores.h"
#include "dp/rdp_accountant.h"
#include "tests/test_helpers.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ExtremeBoundedNeighbor;
using testing_helpers::TinyNetwork;

/// One trial's step records from parallel (sigma, LS) series.
std::vector<StepRecord> Steps(const std::vector<double>& sigmas,
                              const std::vector<double>& local_sensitivities) {
  std::vector<StepRecord> steps(sigmas.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    steps[i].sigma = sigmas[i];
    steps[i].local_sensitivity = local_sensitivities[i];
  }
  return steps;
}

TEST(EpsilonFromSensitivitiesTest, ConstantRatioMatchesAccountant) {
  // sigma_i / LS_i constant at z: epsilon' equals the plain accountant value.
  const double z = 1.5;
  const double delta = 1e-4;
  const size_t k = 30;
  std::vector<double> sigmas(k, 3.0 * z);
  std::vector<double> ls(k, 3.0);
  double expected = *ComposedEpsilonForNoiseMultiplier(z, delta, k);
  StatusOr<double> actual = EpsilonFromSensitivities(Steps(sigmas, ls), delta);
  ASSERT_TRUE(actual.ok());
  EXPECT_NEAR(*actual, expected, 1e-10);
}

TEST(EpsilonFromSensitivitiesTest, SmallerSensitivityMeansSmallerEpsilon) {
  // When the factual LS is far below the noise reference, the model leaks
  // less than specified: epsilon' < epsilon (the Figure 8 GS curves).
  const double delta = 1e-4;
  std::vector<double> sigmas(30, 6.0);  // noise scaled to GS = 2C = 6
  std::vector<double> ls_tight(30, 6.0);
  std::vector<double> ls_loose(30, 1.5);  // factual difference much smaller
  double eps_tight = *EpsilonFromSensitivities(Steps(sigmas, ls_tight), delta);
  double eps_loose = *EpsilonFromSensitivities(Steps(sigmas, ls_loose), delta);
  EXPECT_LT(eps_loose, eps_tight);
}

TEST(EpsilonFromSensitivitiesTest, ZeroSensitivityStepsContributeNothing) {
  const double delta = 1e-4;
  std::vector<double> sigmas = {2.0, 2.0, 2.0};
  std::vector<double> ls_all = {1.0, 1.0, 1.0};
  std::vector<double> ls_some = {1.0, 0.0, 1.0};
  double eps_all = *EpsilonFromSensitivities(Steps(sigmas, ls_all), delta);
  double eps_some = *EpsilonFromSensitivities(Steps(sigmas, ls_some), delta);
  EXPECT_LT(eps_some, eps_all);
  // All-zero: no distinguishable release at all.
  EXPECT_DOUBLE_EQ(
      *EpsilonFromSensitivities(Steps(sigmas, {0.0, 0.0, 0.0}), delta), 0.0);
}

TEST(EpsilonFromSensitivitiesTest, RejectsBadInput) {
  EXPECT_FALSE(EpsilonFromSensitivities(std::vector<StepRecord>{}, 1e-4).ok());
  EXPECT_FALSE(EpsilonFromSensitivities(Steps({0.0}, {1.0}), 1e-4).ok());
  EXPECT_FALSE(EpsilonFromSensitivities(Steps({1.0}, {1.0}), 0.0).ok());
}

TEST(EpsilonFromMaxBeliefTest, InvertsRhoBeta) {
  for (double eps : {0.5, 1.1, 2.2, 4.6}) {
    double belief = *RhoBeta(eps);
    EXPECT_NEAR(*EpsilonFromMaxBelief(belief), eps, 1e-9);
  }
}

TEST(EpsilonFromMaxBeliefTest, HalfOrLessAuditsToZero) {
  EXPECT_DOUBLE_EQ(*EpsilonFromMaxBelief(0.5), 0.0);
  EXPECT_DOUBLE_EQ(*EpsilonFromMaxBelief(0.3), 0.0);
}

TEST(EpsilonFromMaxBeliefTest, RejectsDegenerate) {
  EXPECT_FALSE(EpsilonFromMaxBelief(0.0).ok());
  EXPECT_FALSE(EpsilonFromMaxBelief(1.0).ok());
}

TEST(EpsilonFromAdvantageTest, InvertsRhoAlpha) {
  const double delta = 0.001;
  for (double eps : {0.5, 1.1, 2.2, 4.6}) {
    double adv = *RhoAlpha(eps, delta);
    EXPECT_NEAR(*EpsilonFromAdvantage(adv, delta), eps, 1e-7);
  }
}

TEST(EpsilonFromAdvantageTest, NonPositiveAdvantageAuditsToZero) {
  EXPECT_DOUBLE_EQ(*EpsilonFromAdvantage(0.0, 0.001), 0.0);
  EXPECT_DOUBLE_EQ(*EpsilonFromAdvantage(-0.2, 0.001), 0.0);
}

TEST(EpsilonFromAdvantageTest, CertainIdentificationAuditsToInfinity) {
  // All trials won: no finite epsilon is consistent with the observation.
  auto eps = EpsilonFromAdvantage(1.0, 0.001);
  ASSERT_TRUE(eps.ok());
  EXPECT_TRUE(std::isinf(*eps));
  EXPECT_FALSE(EpsilonFromAdvantage(1.5, 0.001).ok());
}

TEST(EpsilonIntervalTest, BracketsThePointEstimate) {
  auto interval = EpsilonIntervalFromWins(70, 100, 0.001);
  ASSERT_TRUE(interval.ok()) << interval.status();
  EXPECT_LE(interval->lo, interval->point);
  EXPECT_LE(interval->point, interval->hi);
  EXPECT_GT(interval->hi, 0.0);
}

TEST(EpsilonIntervalTest, ShrinksWithMoreTrials) {
  auto narrow = EpsilonIntervalFromWins(700, 1000, 0.001);
  auto wide = EpsilonIntervalFromWins(7, 10, 0.001);
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_LT(narrow->hi - narrow->lo, wide->hi - wide->lo);
}

TEST(EpsilonIntervalTest, ChanceLevelCoversZero) {
  // 50/100 wins: the interval must include epsilon' = 0.
  auto interval = EpsilonIntervalFromWins(50, 100, 0.001);
  ASSERT_TRUE(interval.ok());
  EXPECT_DOUBLE_EQ(interval->lo, 0.0);
  EXPECT_DOUBLE_EQ(interval->point, 0.0);
  EXPECT_GT(interval->hi, 0.0);
}

TEST(EpsilonIntervalTest, CertainWinsGiveFiniteLowerBound) {
  // 20/20 wins: the point estimate is infinite but the Wilson lower bound
  // stays below 1, so the interval's lo is finite and positive — the
  // defensible claim from a perfect finite-sample attack.
  auto interval = EpsilonIntervalFromWins(20, 20, 0.001);
  ASSERT_TRUE(interval.ok());
  EXPECT_GT(interval->lo, 0.0);
  EXPECT_TRUE(std::isfinite(interval->lo));
  EXPECT_TRUE(std::isinf(interval->point));
}

TEST(EpsilonIntervalTest, RejectsBadInput) {
  EXPECT_FALSE(EpsilonIntervalFromWins(5, 0, 0.001).ok());
  EXPECT_FALSE(EpsilonIntervalFromWins(11, 10, 0.001).ok());
  EXPECT_FALSE(EpsilonIntervalFromWins(5, 10, 0.0).ok());
}

TEST(EpsilonIntervalTest, SummaryConvenienceMatchesManualCount) {
  DiExperimentSummary summary;
  DiTrialResult win;
  win.trained_on_d = true;
  win.adversary_says_d = true;
  DiTrialResult loss = win;
  loss.adversary_says_d = false;
  summary.trials = {win, win, win, loss};
  auto from_summary = EpsilonIntervalFromAdvantage(summary, 0.001);
  auto manual = EpsilonIntervalFromWins(3, 4, 0.001);
  ASSERT_TRUE(from_summary.ok());
  ASSERT_TRUE(manual.ok());
  EXPECT_DOUBLE_EQ(from_summary->lo, manual->lo);
  EXPECT_DOUBLE_EQ(from_summary->hi, manual->hi);
}

TEST(AuditExperimentTest, EndToEndOnRealTrials) {
  Rng rng(1);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 6.0f);
  DiExperimentConfig config;
  config.dpsgd.epochs = 5;
  config.dpsgd.learning_rate = 0.05;
  config.dpsgd.clip_norm = 1.0;
  config.dpsgd.noise_multiplier = 2.0;
  config.repetitions = 10;
  config.seed = 5;
  auto summary = RunDiExperiment(net, d, d_prime, config);
  ASSERT_TRUE(summary.ok());
  auto report = AuditExperiment(*summary, /*delta=*/0.01);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->epsilon_from_sensitivities, 0.0);
  EXPECT_GE(report->epsilon_from_belief, 0.0);
  EXPECT_GE(report->epsilon_from_advantage, 0.0);
  EXPECT_TRUE(std::isfinite(report->epsilon_from_sensitivities));
}

}  // namespace
}  // namespace dpaudit
