#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/test_helpers.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ReferenceClippedGradientSum;
using testing_helpers::TinyNetwork;

std::vector<float> ConstantGradient(size_t n, float value) {
  return std::vector<float>(n, value);
}

TEST(SgdOptimizerTest, MatchesApplyGradientStep) {
  Rng rng(1);
  Network a = TinyNetwork();
  a.Initialize(rng);
  Network b = a.Clone();
  std::vector<float> grad = ConstantGradient(a.NumParams(), 0.5f);
  SgdOptimizer sgd(0.1);
  sgd.Step(a, grad);
  b.ApplyGradientStep(grad, 0.1);
  EXPECT_EQ(a.FlatParams(), b.FlatParams());
}

TEST(MomentumOptimizerTest, AcceleratesAlongConstantGradient) {
  Rng rng(2);
  Network net = TinyNetwork();
  net.Initialize(rng);
  std::vector<float> start = net.FlatParams();
  std::vector<float> grad = ConstantGradient(net.NumParams(), 1.0f);
  MomentumOptimizer momentum(0.1, 0.9);
  momentum.Step(net, grad);
  std::vector<float> after1 = net.FlatParams();
  momentum.Step(net, grad);
  std::vector<float> after2 = net.FlatParams();
  // First step: lr * 1; second step: lr * (1 + mu) > first.
  double step1 = std::fabs(after1[0] - start[0]);
  double step2 = std::fabs(after2[0] - after1[0]);
  EXPECT_NEAR(step1, 0.1, 1e-6);
  EXPECT_NEAR(step2, 0.1 * 1.9, 1e-6);
}

TEST(AdamOptimizerTest, FirstStepIsLearningRateSized) {
  // With bias correction, the first Adam step is ~lr regardless of the
  // gradient magnitude.
  Rng rng(3);
  Network net = TinyNetwork();
  net.Initialize(rng);
  std::vector<float> start = net.FlatParams();
  AdamOptimizer adam(0.01);
  adam.Step(net, ConstantGradient(net.NumParams(), 123.0f));
  std::vector<float> after = net.FlatParams();
  EXPECT_NEAR(std::fabs(after[0] - start[0]), 0.01, 1e-4);
}

TEST(AdamOptimizerTest, StepDirectionFollowsGradientSign) {
  Rng rng(4);
  Network net = TinyNetwork();
  net.Initialize(rng);
  std::vector<float> start = net.FlatParams();
  std::vector<float> grad(net.NumParams(), 0.0f);
  grad[0] = 2.0f;
  grad[1] = -2.0f;
  AdamOptimizer adam(0.05);
  adam.Step(net, grad);
  std::vector<float> after = net.FlatParams();
  EXPECT_LT(after[0], start[0]);  // positive gradient: parameter decreases
  EXPECT_GT(after[1], start[1]);
  EXPECT_FLOAT_EQ(after[2], start[2]);  // zero gradient: untouched
}

TEST(OptimizerCloneTest, CloneResetsState) {
  Rng rng(5);
  Network net = TinyNetwork();
  net.Initialize(rng);
  MomentumOptimizer momentum(0.1, 0.9);
  momentum.Step(net, ConstantGradient(net.NumParams(), 1.0f));
  // A clone starts with zero velocity: its first step is lr-sized again.
  Network fresh = TinyNetwork();
  fresh.Initialize(rng);
  std::vector<float> start = fresh.FlatParams();
  std::unique_ptr<Optimizer> clone = momentum.Clone();
  clone->Step(fresh, ConstantGradient(fresh.NumParams(), 1.0f));
  EXPECT_NEAR(std::fabs(fresh.FlatParams()[0] - start[0]), 0.1, 1e-6);
}

TEST(OptimizerFactoryTest, MakesEveryKind) {
  EXPECT_EQ(MakeOptimizer(OptimizerKind::kSgd, 0.1)->Name(), "sgd");
  EXPECT_EQ(MakeOptimizer(OptimizerKind::kMomentum, 0.1)->Name(),
            "momentum");
  EXPECT_EQ(MakeOptimizer(OptimizerKind::kAdam, 0.1)->Name(), "adam");
  EXPECT_STREQ(OptimizerKindToString(OptimizerKind::kAdam), "adam");
}

class OptimizerConvergenceTest
    : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerConvergenceTest, ReducesLossOnBlobs) {
  Rng rng(6);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(15, rng);
  double lr = GetParam() == OptimizerKind::kAdam ? 0.05 : 0.3;
  std::unique_ptr<Optimizer> optimizer = MakeOptimizer(GetParam(), lr);
  auto total_loss = [&] {
    double loss = 0.0;
    for (size_t i = 0; i < d.size(); ++i) {
      loss += net.ExampleLoss(d.inputs[i], d.labels[i]);
    }
    return loss;
  };
  double before = total_loss();
  for (int step = 0; step < 60; ++step) {
    std::vector<float> sum =
        ReferenceClippedGradientSum(net, d.inputs, d.labels, 10.0);
    for (float& g : sum) g /= static_cast<float>(d.size());
    optimizer->Step(net, sum);
  }
  EXPECT_LT(total_loss(), 0.5 * before);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OptimizerConvergenceTest,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kMomentum,
                                           OptimizerKind::kAdam));

TEST(OptimizerDeathTest, InvalidHyperparametersDie) {
  EXPECT_DEATH(SgdOptimizer(0.0), "CHECK failed");
  EXPECT_DEATH(MomentumOptimizer(0.1, 1.0), "CHECK failed");
  EXPECT_DEATH(AdamOptimizer(0.1, 0.9, 0.999, 0.0), "CHECK failed");
}

}  // namespace
}  // namespace dpaudit
