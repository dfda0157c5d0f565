#include "mi/membership_inference.h"

#include <gtest/gtest.h>

#include "stats/summary.h"
#include "tensor/tensor.h"
#include "tests/test_helpers.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::kClasses;
using testing_helpers::kFeatures;
using testing_helpers::TinyNetwork;

DistSampler BlobSampler() {
  return [](size_t count, Rng& rng) { return BlobDataset(count, rng); };
}

TEST(MiAdversaryTest, CalibrationSetsThreshold) {
  Rng rng(1);
  Network net = TinyNetwork();
  net.Initialize(rng);
  MiAdversary adversary(BlobSampler(), /*probe_count=*/16);
  ASSERT_TRUE(adversary.Calibrate(net, rng).ok());
  EXPECT_GT(adversary.threshold(), 0.0);
}

TEST(MiAdversaryTest, ThresholdIsTheMeanOfSingleRecordProbeLosses) {
  // Calibrate scores its probes in one batched pass; the threshold must be
  // bit-identical to scoring each probe alone.
  Rng rng(3);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Rng probe_rng(9);
  MiAdversary adversary(BlobSampler(), /*probe_count=*/11);
  ASSERT_TRUE(adversary.Calibrate(net, probe_rng).ok());
  Rng replay_rng(9);
  const Dataset probes = BlobDataset(11, replay_rng);
  RunningSummary losses;
  for (size_t i = 0; i < probes.size(); ++i) {
    losses.Add(net.ExampleLoss(probes.inputs[i], probes.labels[i]));
  }
  EXPECT_EQ(adversary.threshold(), losses.mean());
}

TEST(MiAdversaryTest, DecideComparesLossToThreshold) {
  Rng rng(2);
  Network net = TinyNetwork();
  net.Initialize(rng);
  MiAdversary adversary(BlobSampler(), 16);
  ASSERT_TRUE(adversary.Calibrate(net, rng).ok());
  // A record the model classifies confidently (low loss) reads as a member.
  // Train briefly on one record to push its loss down.
  Dataset one = BlobDataset(1, rng);
  for (int i = 0; i < 200; ++i) {
    std::vector<float> g = net.PerExampleGradient(one.inputs[0],
                                                  one.labels[0]);
    net.ApplyGradientStep(g, 0.2);
  }
  EXPECT_TRUE(adversary.Decide(net, one.inputs[0], one.labels[0]));
}

TEST(MiAdversaryDeathTest, DecideBeforeCalibrateDies) {
  Rng rng(3);
  Network net = TinyNetwork();
  net.Initialize(rng);
  MiAdversary adversary(BlobSampler());
  Tensor x({kFeatures});
  EXPECT_DEATH((void)adversary.Decide(net, x, 0), "Calibrate");
}

TEST(MiExperimentTest, RunsAndReportsSaneNumbers) {
  MiExperimentConfig config;
  config.dpsgd.epochs = 5;
  config.dpsgd.learning_rate = 0.1;
  config.dpsgd.clip_norm = 1.0;
  config.dpsgd.noise_multiplier = 1.0;
  config.train_size = 12;
  config.trials = 20;
  config.seed = 7;
  auto result = RunMiExperiment(TinyNetwork(), BlobSampler(), config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->trials, 20u);
  EXPECT_GE(result->success_rate, 0.0);
  EXPECT_LE(result->success_rate, 1.0);
  EXPECT_NEAR(result->advantage, 2.0 * result->success_rate - 1.0, 1e-12);
}

TEST(MiExperimentTest, RejectsInvalidConfig) {
  MiExperimentConfig config;
  config.trials = 0;
  EXPECT_FALSE(RunMiExperiment(TinyNetwork(), BlobSampler(), config).ok());
  config.trials = 2;
  config.train_size = 1;
  EXPECT_FALSE(RunMiExperiment(TinyNetwork(), BlobSampler(), config).ok());
}

TEST(MiExperimentTest, DeterministicGivenSeed) {
  MiExperimentConfig config;
  config.dpsgd.epochs = 3;
  config.dpsgd.learning_rate = 0.1;
  config.dpsgd.clip_norm = 1.0;
  config.dpsgd.noise_multiplier = 1.0;
  config.train_size = 8;
  config.trials = 10;
  config.seed = 11;
  auto a = RunMiExperiment(TinyNetwork(), BlobSampler(), config);
  auto b = RunMiExperiment(TinyNetwork(), BlobSampler(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->success_rate, b->success_rate);
}

}  // namespace
}  // namespace dpaudit
