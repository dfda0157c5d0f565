#include "mi/shadow_attack.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/test_helpers.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::TinyNetwork;

DistSampler BlobSampler() {
  return [](size_t count, Rng& rng) { return BlobDataset(count, rng); };
}

TEST(ExtractAttackFeaturesTest, FeaturesAreConsistent) {
  Rng rng(1);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(3, rng);
  AttackFeatures f = ExtractAttackFeatures(net, d.inputs[0], d.labels[0]);
  EXPECT_GT(f.loss, 0.0);
  EXPECT_GT(f.true_confidence, 0.0);
  EXPECT_LE(f.true_confidence, f.top_confidence + 1e-9);
  EXPECT_GE(f.entropy, 0.0);
  EXPECT_LE(f.entropy, std::log(3.0) + 1e-6);  // 3 classes
  // loss = -log(true_confidence).
  EXPECT_NEAR(f.loss, -std::log(f.true_confidence), 1e-5);
}

TEST(ExtractAttackFeaturesTest, BatchedMatchesSingleRecord) {
  Rng rng(3);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(11, rng);  // one full pack and a padded tail
  const std::vector<AttackFeatures> batched = ExtractAttackFeatures(net, d);
  ASSERT_EQ(batched.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    const AttackFeatures single =
        ExtractAttackFeatures(net, d.inputs[i], d.labels[i]);
    EXPECT_EQ(batched[i].AsArray(), single.AsArray()) << "record " << i;
  }
}

TEST(LogisticAttackModelTest, LearnsASeparableRule) {
  // Members: low loss; non-members: high loss.
  std::vector<AttackFeatures> features;
  std::vector<bool> labels;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    AttackFeatures f{};
    bool member = i % 2 == 0;
    f.loss = member ? rng.Uniform(0.0, 0.5) : rng.Uniform(1.5, 3.0);
    f.true_confidence = std::exp(-f.loss);
    f.top_confidence = f.true_confidence;
    f.entropy = f.loss;
    features.push_back(f);
    labels.push_back(member);
  }
  LogisticAttackModel model;
  ASSERT_TRUE(model.Fit(features, labels).ok());
  size_t correct = 0;
  for (size_t i = 0; i < features.size(); ++i) {
    if (model.DecideMember(features[i]) == labels[i]) ++correct;
  }
  EXPECT_GT(correct, 95u);
}

TEST(LogisticAttackModelTest, PredictsProbabilities) {
  std::vector<AttackFeatures> features(4);
  features[0].loss = 0.1;
  features[1].loss = 0.2;
  features[2].loss = 2.0;
  features[3].loss = 2.5;
  std::vector<bool> labels = {true, true, false, false};
  LogisticAttackModel model;
  ASSERT_TRUE(model.Fit(features, labels).ok());
  for (const AttackFeatures& f : features) {
    double p = model.Predict(f);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_GT(model.Predict(features[0]), model.Predict(features[3]));
}

TEST(LogisticAttackModelTest, RejectsDegenerateTrainingSets) {
  LogisticAttackModel model;
  std::vector<AttackFeatures> features(3);
  EXPECT_FALSE(model.Fit(features, {true, true, true}).ok());
  EXPECT_FALSE(model.Fit(features, {false, false, false}).ok());
  EXPECT_FALSE(model.Fit(features, {true, false}).ok());  // size mismatch
  EXPECT_FALSE(model.fitted());
}

TEST(LogisticAttackModelDeathTest, PredictBeforeFitDies) {
  LogisticAttackModel model;
  EXPECT_DEATH((void)model.Predict(AttackFeatures{}), "Fit");
}

TEST(ShadowAttackExperimentTest, RunsEndToEnd) {
  ShadowAttackConfig config;
  config.dpsgd.epochs = 5;
  config.dpsgd.learning_rate = 0.1;
  config.dpsgd.clip_norm = 1.0;
  config.dpsgd.noise_multiplier = 1.0;
  config.train_size = 10;
  config.shadow_count = 3;
  config.trials = 16;
  config.seed = 5;
  auto result = RunShadowAttackExperiment(TinyNetwork(), BlobSampler(),
                                          config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->trials, 16u);
  EXPECT_GE(result->success_rate, 0.0);
  EXPECT_LE(result->success_rate, 1.0);
}

TEST(ShadowAttackExperimentTest, RejectsInvalidConfig) {
  ShadowAttackConfig config;
  config.shadow_count = 0;
  EXPECT_FALSE(
      RunShadowAttackExperiment(TinyNetwork(), BlobSampler(), config).ok());
  config.shadow_count = 2;
  config.trials = 0;
  EXPECT_FALSE(
      RunShadowAttackExperiment(TinyNetwork(), BlobSampler(), config).ok());
  config.trials = 4;
  config.train_size = 1;
  EXPECT_FALSE(
      RunShadowAttackExperiment(TinyNetwork(), BlobSampler(), config).ok());
}

TEST(ShadowAttackExperimentTest, DeterministicGivenSeed) {
  ShadowAttackConfig config;
  config.dpsgd.epochs = 3;
  config.dpsgd.learning_rate = 0.1;
  config.dpsgd.clip_norm = 1.0;
  config.dpsgd.noise_multiplier = 1.0;
  config.train_size = 8;
  config.shadow_count = 2;
  config.trials = 8;
  config.seed = 9;
  auto a = RunShadowAttackExperiment(TinyNetwork(), BlobSampler(), config);
  auto b = RunShadowAttackExperiment(TinyNetwork(), BlobSampler(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->success_rate, b->success_rate);
}

}  // namespace
}  // namespace dpaudit
