#include "core/experiment.h"

#include <gtest/gtest.h>

#include "core/scores.h"
#include "dp/privacy_params.h"
#include "dp/rdp_accountant.h"
#include "tests/test_helpers.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ExpectSummariesBitIdentical;
using testing_helpers::ExtremeBoundedNeighbor;
using testing_helpers::TinyNetwork;

DiExperimentConfig FastExperiment() {
  DiExperimentConfig config;
  config.dpsgd.epochs = 5;
  config.dpsgd.learning_rate = 0.05;
  config.dpsgd.clip_norm = 1.0;
  config.dpsgd.noise_multiplier = 1.0;
  config.repetitions = 16;
  config.seed = 99;
  return config;
}

struct Fixture {
  Fixture() : rng(1), net(TinyNetwork()) {
    net.Initialize(rng);
    d = BlobDataset(9, rng);
    d_prime = ExtremeBoundedNeighbor(d, 6.0f);
  }
  Rng rng;
  Network net;
  Dataset d;
  Dataset d_prime;
};

TEST(DiExperimentTest, ProducesOneTrialPerRepetition) {
  Fixture f;
  auto summary = RunDiExperiment(f.net, f.d, f.d_prime, FastExperiment());
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->trials.size(), 16u);
  for (const DiTrialResult& trial : summary->trials) {
    EXPECT_TRUE(trial.trained_on_d);  // fixed-bit mode
    EXPECT_EQ(trial.steps.size(), 5u);
    EXPECT_EQ(trial.belief_history.size(), 6u);  // prior + one per step
    EXPECT_GE(trial.final_belief_d, 0.0);
    EXPECT_LE(trial.final_belief_d, 1.0);
    EXPECT_GE(trial.max_belief_d, trial.final_belief_d - 1e-12);
    EXPECT_DOUBLE_EQ(trial.test_accuracy, -1.0);  // no test set given
  }
}

TEST(DiExperimentTest, ThreadCountInvariance) {
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  config.threads = 1;
  auto serial = RunDiExperiment(f.net, f.d, f.d_prime, config);
  config.threads = 8;
  auto parallel = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->trials.size(), parallel->trials.size());
  for (size_t i = 0; i < serial->trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial->trials[i].final_belief_d,
                     parallel->trials[i].final_belief_d);
    EXPECT_EQ(serial->trials[i].adversary_says_d,
              parallel->trials[i].adversary_says_d);
  }
}

TEST(DiExperimentTest, GradientEngineThreadCountInvariance) {
  // The per-example gradient engine inside each trial must be bit-identical
  // for any worker count, so whole-experiment summaries (beliefs, decisions,
  // sensitivity traces) must be EXACTLY equal across config.dpsgd.threads.
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  config.threads = 1;
  config.dpsgd.adaptive_clipping = true;  // exercises the norm streams too

  std::vector<DiExperimentSummary> runs;
  for (size_t engine_threads : {size_t{1}, size_t{2}, size_t{8}}) {
    config.dpsgd.threads = engine_threads;
    auto summary = RunDiExperiment(f.net, f.d, f.d_prime, config);
    ASSERT_TRUE(summary.ok()) << summary.status();
    runs.push_back(*summary);
  }

  const DiExperimentSummary& ref = runs[0];
  for (size_t r = 1; r < runs.size(); ++r) {
    ExpectSummariesBitIdentical(ref, runs[r]);
  }
}

TEST(DiExperimentTest, SummaryStatistics) {
  DiExperimentSummary summary;
  DiTrialResult win;
  win.trained_on_d = true;
  win.adversary_says_d = true;
  win.final_belief_d = 0.8;
  win.max_belief_d = 0.95;
  DiTrialResult loss = win;
  loss.adversary_says_d = false;
  loss.final_belief_d = 0.4;
  loss.max_belief_d = 0.6;
  summary.trials = {win, win, win, loss};
  EXPECT_DOUBLE_EQ(summary.SuccessRate(), 0.75);
  EXPECT_DOUBLE_EQ(summary.EmpiricalAdvantage(), 0.5);
  EXPECT_DOUBLE_EQ(summary.EmpiricalDelta(0.9), 0.0);
  EXPECT_DOUBLE_EQ(summary.EmpiricalDelta(0.75), 0.75);
  EXPECT_DOUBLE_EQ(summary.MaxBeliefInD(), 0.95);
  EXPECT_EQ(summary.FinalBeliefsInD().size(), 4u);
}

TEST(DiExperimentTest, SuccessCountsRespectChallengeBit) {
  DiTrialResult t;
  t.trained_on_d = false;
  t.adversary_says_d = false;
  EXPECT_TRUE(t.Success());
  t.adversary_says_d = true;
  EXPECT_FALSE(t.Success());
}

TEST(DiExperimentTest, RandomizedChallengeBitMixesTrials) {
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  config.randomize_challenge_bit = true;
  config.repetitions = 32;
  auto summary = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(summary.ok());
  size_t on_d = 0;
  for (const auto& trial : summary->trials) {
    if (trial.trained_on_d) ++on_d;
  }
  EXPECT_GT(on_d, 4u);
  EXPECT_LT(on_d, 28u);
}

TEST(DiExperimentTest, LowNoiseYieldsHighAdvantage) {
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  config.dpsgd.noise_multiplier = 0.05;
  config.dpsgd.sensitivity_mode = SensitivityMode::kLocalHat;
  config.repetitions = 12;
  auto summary = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(summary.ok());
  EXPECT_GT(summary->EmpiricalAdvantage(), 0.8);
}

TEST(DiExperimentTest, HighNoiseYieldsLowAdvantage) {
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  config.dpsgd.noise_multiplier = 50.0;
  config.repetitions = 24;
  auto summary = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(summary.ok());
  EXPECT_LT(summary->EmpiricalAdvantage(), 0.5);
}

TEST(DiExperimentTest, TestSetAccuracyEvaluated) {
  Fixture f;
  Rng data_rng(44);
  Dataset test = BlobDataset(12, data_rng);
  auto summary =
      RunDiExperiment(f.net, f.d, f.d_prime, FastExperiment(), &test);
  ASSERT_TRUE(summary.ok());
  std::vector<double> accuracies = summary->TestAccuracies();
  ASSERT_EQ(accuracies.size(), 16u);
  for (double acc : accuracies) {
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

TEST(DiExperimentTest, EmpiricalDeltaZeroWithoutTrainedOnDTrials) {
  DiExperimentSummary summary;
  DiTrialResult t;
  t.trained_on_d = false;
  t.final_belief_d = 0.99;
  summary.trials = {t};
  EXPECT_DOUBLE_EQ(summary.EmpiricalDelta(0.9), 0.0);
  EXPECT_TRUE(summary.FinalBeliefsInD().empty());
  EXPECT_DOUBLE_EQ(summary.MaxBeliefInD(), 0.0);
}

TEST(DiExperimentTest, EmptySummaryStatisticsAreSafe) {
  DiExperimentSummary summary;
  EXPECT_DOUBLE_EQ(summary.SuccessRate(), 0.0);
  EXPECT_DOUBLE_EQ(summary.EmpiricalAdvantage(), -1.0);
  EXPECT_DOUBLE_EQ(summary.EmpiricalDelta(0.9), 0.0);
  EXPECT_TRUE(summary.TestAccuracies().empty());
}

TEST(DiExperimentTest, FixedWeightsModeSharesInitialization) {
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  config.reinitialize_weights = false;
  config.repetitions = 4;
  auto summary = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->trials.size(), 4u);
  // With shared theta_0 the per-step sigmas at step 0 are identical across
  // trials in GS mode (sensitivity is the constant global bound).
  double sigma0 = summary->trials[0].steps[0].sigma;
  for (const auto& trial : summary->trials) {
    EXPECT_DOUBLE_EQ(trial.steps[0].sigma, sigma0);
  }
}

TEST(DiExperimentTest, RejectsInvalidConfig) {
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  config.repetitions = 0;
  EXPECT_FALSE(RunDiExperiment(f.net, f.d, f.d_prime, config).ok());
  config = FastExperiment();
  config.dpsgd.epochs = 0;
  EXPECT_FALSE(RunDiExperiment(f.net, f.d, f.d_prime, config).ok());
}

// ---------- Poisson-subsampled Exp^DI (sampling_rate < 1) ----------

DiExperimentConfig FastSampledExperiment() {
  DiExperimentConfig config = FastExperiment();
  config.dpsgd.epochs = 8;
  config.dpsgd.neighbor_mode = NeighborMode::kUnbounded;
  config.dpsgd.sampling_rate = 0.4;
  return config;
}

struct SampledFixture {
  SampledFixture() : rng(7), net(TinyNetwork()) {
    net.Initialize(rng);
    d = BlobDataset(12, rng);
    d_prime = d.WithRecordRemoved(0);
  }
  Rng rng;
  Network net;
  Dataset d;
  Dataset d_prime;
};

TEST(SampledExperimentTest, BeliefBoundHoldsUnderSubsampledAccounting) {
  SampledFixture f;
  const double rho_beta = 0.9;
  const double delta = 0.05;
  DiExperimentConfig config = FastSampledExperiment();
  config.dpsgd.epochs = 10;
  config.repetitions = 200;
  config.seed = 11;
  const double epsilon = *EpsilonForRhoBeta(rho_beta);
  config.dpsgd.noise_multiplier = *SampledNoiseMultiplierForTargetEpsilon(
      epsilon, delta, config.dpsgd.epochs, config.dpsgd.sampling_rate);
  auto summary = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(summary.ok()) << summary.status();
  // Theorem 1 with the subsampled accountant's epsilon: violations of the
  // belief bound are rare (delta-scale; allow 3x sampling slack).
  EXPECT_LE(summary->EmpiricalDelta(rho_beta), 3.0 * delta);
}

TEST(SampledExperimentTest, LowerSamplingRateLowersAdvantage) {
  SampledFixture f;
  DiExperimentConfig config = FastSampledExperiment();
  config.dpsgd.noise_multiplier = 0.5;  // weak noise: sampling protects
  config.repetitions = 120;
  config.seed = 13;
  config.dpsgd.sampling_rate = 1.0;
  auto full = RunDiExperiment(f.net, f.d, f.d_prime, config);
  config.dpsgd.sampling_rate = 0.1;
  auto sparse = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(sparse.ok());
  EXPECT_GT(full->EmpiricalAdvantage(),
            sparse->EmpiricalAdvantage() + 0.05);
}

TEST(SampledExperimentTest, DeterministicAcrossThreadCounts) {
  // Trials and the engine inside them: bit-identical at 1 and 8 threads.
  SampledFixture f;
  DiExperimentConfig config = FastSampledExperiment();
  config.dpsgd.epochs = 4;
  config.repetitions = 12;
  config.seed = 17;
  config.threads = 1;
  config.dpsgd.threads = 1;
  auto serial = RunDiExperiment(f.net, f.d, f.d_prime, config);
  config.threads = 8;
  config.dpsgd.threads = 8;
  auto parallel = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectSummariesBitIdentical(*serial, *parallel);
}

}  // namespace
}  // namespace dpaudit
