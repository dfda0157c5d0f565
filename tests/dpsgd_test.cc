#include "core/dpsgd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "dp/mechanism.h"
#include "dp/sensitivity.h"
#include "nn/optimizer.h"
#include "tests/test_helpers.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ExtremeBoundedNeighbor;
using testing_helpers::ReferenceClippedGradientSum;
using testing_helpers::TinyNetwork;

DpSgdConfig FastConfig() {
  DpSgdConfig config;
  config.epochs = 5;
  config.learning_rate = 0.05;
  config.clip_norm = 1.0;
  config.noise_multiplier = 1.0;
  return config;
}

TEST(DpSgdConfigTest, Validation) {
  EXPECT_TRUE(FastConfig().Validate().ok());
  DpSgdConfig bad = FastConfig();
  bad.epochs = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastConfig();
  bad.learning_rate = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastConfig();
  bad.clip_norm = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastConfig();
  bad.noise_multiplier = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(DpSgdTest, RejectsMismatchedNeighborSizes) {
  Rng rng(1);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(10, rng);
  DpSgdConfig config = FastConfig();
  config.neighbor_mode = NeighborMode::kBounded;
  // Bounded requires equal sizes.
  Dataset smaller = d.WithRecordRemoved(0);
  Rng run_rng(2);
  EXPECT_FALSE(RunDpSgd(net, d, smaller, true, config, run_rng).ok());
  // Unbounded requires |D'| = |D| - 1.
  config.neighbor_mode = NeighborMode::kUnbounded;
  EXPECT_FALSE(RunDpSgd(net, d, d, true, config, run_rng).ok());
  EXPECT_TRUE(RunDpSgd(net, d, smaller, true, config, run_rng).ok());
}

TEST(DpSgdTest, ProducesOneRecordPerEpoch) {
  Rng rng(3);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  Rng run_rng(4);
  auto result = RunDpSgd(net, d, d_prime, true, FastConfig(), run_rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->steps.size(), 5u);
  for (const StepRecord& step : result->steps) {
    EXPECT_GT(step.sigma, 0.0);
    EXPECT_GT(step.sensitivity_used, 0.0);
    EXPECT_GE(step.local_sensitivity, 0.0);
  }
}

TEST(DpSgdTest, GlobalSensitivityMatchesNeighborMode) {
  Rng rng(5);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  DpSgdConfig config = FastConfig();
  config.sensitivity_mode = SensitivityMode::kGlobal;
  config.neighbor_mode = NeighborMode::kBounded;
  Rng run_rng(6);
  auto bounded = RunDpSgd(net, d, d_prime, true, config, run_rng);
  ASSERT_TRUE(bounded.ok());
  for (const auto& step : bounded->steps) {
    EXPECT_DOUBLE_EQ(step.sensitivity_used, 2.0 * config.clip_norm);
    EXPECT_DOUBLE_EQ(step.sigma,
                     config.noise_multiplier * 2.0 * config.clip_norm);
  }
  config.neighbor_mode = NeighborMode::kUnbounded;
  Dataset removed = d.WithRecordRemoved(0);
  auto unbounded = RunDpSgd(net, d, removed, true, config, run_rng);
  ASSERT_TRUE(unbounded.ok());
  for (const auto& step : unbounded->steps) {
    EXPECT_DOUBLE_EQ(step.sensitivity_used, config.clip_norm);
  }
}

TEST(DpSgdTest, LocalSensitivityScalesNoisePerStep) {
  Rng rng(7);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  DpSgdConfig config = FastConfig();
  config.sensitivity_mode = SensitivityMode::kLocalHat;
  Rng run_rng(8);
  auto result = RunDpSgd(net, d, d_prime, true, config, run_rng);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    if (step.local_sensitivity > 0.0) {
      EXPECT_DOUBLE_EQ(step.sensitivity_used, step.local_sensitivity);
      EXPECT_NEAR(step.sigma,
                  config.noise_multiplier * step.local_sensitivity, 1e-12);
    }
  }
}

TEST(DpSgdTest, LocalSensitivityBoundedByGlobal) {
  // ||S_D - S_D'|| <= 2C for bounded neighbors (triangle inequality on two
  // clipped per-example gradients).
  Rng rng(9);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  DpSgdConfig config = FastConfig();
  config.neighbor_mode = NeighborMode::kBounded;
  Rng run_rng(10);
  auto result = RunDpSgd(net, d, d_prime, true, config, run_rng);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_LE(step.local_sensitivity, 2.0 * config.clip_norm + 1e-6);
  }
}

TEST(DpSgdTest, DeterministicGivenSeed) {
  Rng rng(11);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  Rng run_a(12);
  Rng run_b(12);
  auto a = RunDpSgd(net, d, d_prime, true, FastConfig(), run_a);
  auto b = RunDpSgd(net, d, d_prime, true, FastConfig(), run_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->model.FlatParams(), b->model.FlatParams());
  for (size_t i = 0; i < a->steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->steps[i].local_sensitivity,
                     b->steps[i].local_sensitivity);
  }
}

class RecordingObserver : public DpSgdStepObserver {
 public:
  void OnStep(size_t step, const std::vector<float>& sum_d,
              const std::vector<float>& sum_dprime,
              const std::vector<float>& released, double sigma) override {
    steps_seen.push_back(step);
    last_dims = {sum_d.size(), sum_dprime.size(), released.size()};
    sigmas.push_back(sigma);
  }
  std::vector<size_t> steps_seen;
  std::vector<size_t> last_dims;
  std::vector<double> sigmas;
};

TEST(DpSgdTest, ObserverSeesEveryStepWithFullVectors) {
  Rng rng(13);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  RecordingObserver observer;
  Rng run_rng(14);
  auto result =
      RunDpSgd(net, d, d_prime, true, FastConfig(), run_rng, &observer);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(observer.steps_seen.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(observer.steps_seen[i], i);
  for (size_t dim : observer.last_dims) EXPECT_EQ(dim, net.NumParams());
  for (size_t i = 0; i < observer.sigmas.size(); ++i) {
    EXPECT_DOUBLE_EQ(observer.sigmas[i], result->steps[i].sigma);
  }
}

TEST(DpSgdTest, TrainingMovesParameters) {
  Rng rng(15);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  std::vector<float> before = net.FlatParams();
  Rng run_rng(16);
  auto result = RunDpSgd(net, d, d_prime, true, FastConfig(), run_rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->model.FlatParams(), before);
  // The input network is untouched (trainer clones).
  EXPECT_EQ(net.FlatParams(), before);
}

TEST(NonPrivateSgdTest, LearnsTheBlobs) {
  Rng rng(17);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(30, rng);
  auto trained = RunNonPrivateSgd(net, d, /*epochs=*/150,
                                  /*learning_rate=*/0.5, /*clip_norm=*/5.0);
  ASSERT_TRUE(trained.ok());
  double acc_before = net.Accuracy(d.inputs, d.labels);
  double acc_after = trained->Accuracy(d.inputs, d.labels);
  EXPECT_GT(acc_after, acc_before);
  EXPECT_GT(acc_after, 0.8);
}

TEST(DpSgdTest, OptimizerChoiceChangesTrajectoryDeterministically) {
  Rng rng(19);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  DpSgdConfig config = FastConfig();
  auto run = [&](OptimizerKind kind, uint64_t seed) {
    DpSgdConfig c = config;
    c.optimizer = kind;
    Rng run_rng(seed);
    auto result = RunDpSgd(net, d, d_prime, true, c, run_rng);
    EXPECT_TRUE(result.ok());
    return result->model.FlatParams();
  };
  // Same seed, different optimizers: different final weights.
  EXPECT_NE(run(OptimizerKind::kSgd, 7), run(OptimizerKind::kAdam, 7));
  EXPECT_NE(run(OptimizerKind::kSgd, 7), run(OptimizerKind::kMomentum, 7));
  // Same optimizer, same seed: identical.
  EXPECT_EQ(run(OptimizerKind::kAdam, 7), run(OptimizerKind::kAdam, 7));
}

TEST(DpSgdTest, AdaptiveClippingTracksGradientNorms) {
  Rng rng(20);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  DpSgdConfig config = FastConfig();
  config.epochs = 10;
  config.clip_norm = 50.0;  // start far above the factual norms
  config.adaptive_clipping = true;
  config.clip_smoothing = 0.5;
  Rng run_rng(21);
  auto result = RunDpSgd(net, d, d_prime, true, config, run_rng);
  ASSERT_TRUE(result.ok());
  // The clip norm must fall from the inflated start toward the data's
  // actual per-example gradient norms (well under 50).
  EXPECT_DOUBLE_EQ(result->steps.front().clip_norm, 50.0);
  EXPECT_LT(result->steps.back().clip_norm, 25.0);
  // And it must stay positive.
  for (const auto& step : result->steps) EXPECT_GT(step.clip_norm, 0.0);
}

TEST(DpSgdTest, AdaptiveClippingScalesNoiseWithCurrentClip) {
  Rng rng(22);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  DpSgdConfig config = FastConfig();
  config.epochs = 8;
  config.clip_norm = 50.0;
  config.adaptive_clipping = true;
  config.sensitivity_mode = SensitivityMode::kGlobal;
  config.neighbor_mode = NeighborMode::kBounded;
  Rng run_rng(23);
  auto result = RunDpSgd(net, d, d_prime, true, config, run_rng);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_DOUBLE_EQ(step.sensitivity_used, 2.0 * step.clip_norm);
    EXPECT_DOUBLE_EQ(step.sigma,
                     config.noise_multiplier * 2.0 * step.clip_norm);
  }
}

TEST(DpSgdTest, PerLayerClippingRunsAndDiffersFromFlat) {
  Rng rng(24);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  DpSgdConfig config = FastConfig();
  config.clip_norm = 0.1;  // aggressive so the clipping style matters
  auto run = [&](bool per_layer, uint64_t seed) {
    DpSgdConfig c = config;
    c.per_layer_clipping = per_layer;
    Rng run_rng(seed);
    auto result = RunDpSgd(net, d, d_prime, true, c, run_rng);
    EXPECT_TRUE(result.ok());
    return result->model.FlatParams();
  };
  EXPECT_NE(run(true, 7), run(false, 7));
  EXPECT_EQ(run(true, 7), run(true, 7));
}

TEST(DpSgdTest, PerLayerClippingKeepsLocalSensitivityWithinGlobal) {
  Rng rng(25);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 5.0f);
  DpSgdConfig config = FastConfig();
  config.per_layer_clipping = true;
  config.neighbor_mode = NeighborMode::kBounded;
  Rng run_rng(26);
  auto result = RunDpSgd(net, d, d_prime, true, config, run_rng);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_LE(step.local_sensitivity, 2.0 * config.clip_norm + 1e-6);
  }
}

TEST(DpSgdTest, PerLayerAndAdaptiveClippingConflict) {
  DpSgdConfig config = FastConfig();
  config.per_layer_clipping = true;
  config.adaptive_clipping = true;
  EXPECT_FALSE(config.Validate().ok());
  config.adaptive_clipping = false;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(DpSgdTest, AdaptiveClippingConfigValidation) {
  DpSgdConfig config = FastConfig();
  config.adaptive_clipping = true;
  config.clip_quantile = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.clip_quantile = 0.5;
  config.clip_smoothing = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.clip_smoothing = 1.0;
  EXPECT_TRUE(config.Validate().ok());
}

// ---------- Poisson-subsampled DPSGD (sampling_rate < 1) ----------

DpSgdConfig FastSampledConfig() {
  DpSgdConfig config = FastConfig();
  config.epochs = 8;
  config.neighbor_mode = NeighborMode::kUnbounded;
  config.sampling_rate = 0.4;
  return config;
}

/// Records, per step, whether the release sat nearer sum_d than sum_dprime.
class CenterObserver : public DpSgdStepObserver {
 public:
  void OnStep(size_t /*step*/, const std::vector<float>& sum_d,
              const std::vector<float>& sum_dprime,
              const std::vector<float>& released, double /*sigma*/) override {
    gaps.push_back(GradientDistance(sum_d, sum_dprime));
    nearer_d.push_back(GradientDistance(released, sum_d) <
                       GradientDistance(released, sum_dprime));
  }
  std::vector<double> gaps;
  std::vector<bool> nearer_d;
};

TEST(SampledDpSgdTest, ConfigValidation) {
  EXPECT_TRUE(FastSampledConfig().Validate().ok());
  DpSgdConfig bad = FastSampledConfig();
  bad.sampling_rate = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad.sampling_rate = 1.2;
  EXPECT_FALSE(bad.Validate().ok());
  // q < 1 is the subsampled-Gaussian setting only: unbounded neighbours,
  // global sensitivity, one fixed whole-gradient clip norm.
  bad = FastSampledConfig();
  bad.neighbor_mode = NeighborMode::kBounded;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastSampledConfig();
  bad.sensitivity_mode = SensitivityMode::kLocalHat;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastSampledConfig();
  bad.adaptive_clipping = true;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastSampledConfig();
  bad.per_layer_clipping = true;
  EXPECT_FALSE(bad.Validate().ok());
  // At q = 1 every combination stays available.
  bad.sampling_rate = 1.0;
  bad.neighbor_mode = NeighborMode::kBounded;
  EXPECT_TRUE(bad.Validate().ok());
}

TEST(SampledDpSgdTest, RunsAndRecordsSampling) {
  Rng rng(1);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(12, rng);
  Dataset d_prime = d.WithRecordRemoved(0);
  DpSgdConfig config = FastSampledConfig();
  config.epochs = 24;
  config.noise_multiplier = 1e-4;  // the release shows its center
  CenterObserver observer;
  Rng run_rng(2);
  auto result = RunDpSgd(net, d, d_prime, /*train_on_d=*/true, config,
                         run_rng, &observer);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->steps.size(), 24u);
  for (const StepRecord& step : result->steps) {
    // Unbounded global sensitivity is C, whatever the batch.
    EXPECT_DOUBLE_EQ(step.sigma, config.noise_multiplier * config.clip_norm);
  }
  // x1 is in sum_d every step; the release follows it only when sampled.
  size_t released_d = 0;
  for (size_t i = 0; i < observer.gaps.size(); ++i) {
    EXPECT_GT(observer.gaps[i], 0.0);
    if (observer.nearer_d[i]) ++released_d;
  }
  EXPECT_GT(released_d, 0u);
  EXPECT_LT(released_d, observer.gaps.size());
}

TEST(SampledDpSgdTest, DifferingNeverSampledWhenTrainingOnDPrime) {
  // A D'-trained run never releases the sum_d center.
  Rng rng(3);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(12, rng);
  DpSgdConfig config = FastSampledConfig();
  config.epochs = 24;
  config.noise_multiplier = 1e-4;
  CenterObserver observer;
  Rng run_rng(4);
  auto result = RunDpSgd(net, d, d.WithRecordRemoved(0),
                         /*train_on_d=*/false, config, run_rng, &observer);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(observer.nearer_d.size(), 24u);
  for (bool nearer_d : observer.nearer_d) EXPECT_FALSE(nearer_d);
}

TEST(SampledDpSgdTest, RejectsBadArguments) {
  Rng rng(5);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(6, rng);
  Rng run_rng(6);
  // D' must be D with one record removed, not merely one record smaller.
  Dataset unrelated = BlobDataset(5, rng);
  EXPECT_FALSE(RunDpSgd(net, d, unrelated, true, FastSampledConfig(),
                        run_rng)
                   .ok());
  EXPECT_FALSE(
      RunDpSgd(net, d, d, true, FastSampledConfig(), run_rng).ok());
  EXPECT_TRUE(RunDpSgd(net, d, d.WithRecordRemoved(3), true,
                       FastSampledConfig(), run_rng)
                  .ok());
}

TEST(SampledDpSgdTest, OptimizerChoiceIsHonored) {
  Rng rng(31);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(10, rng);
  Dataset d_prime = d.WithRecordRemoved(0);
  auto run = [&](OptimizerKind kind) {
    DpSgdConfig config = FastSampledConfig();
    config.optimizer = kind;
    Rng run_rng(32);
    auto result = RunDpSgd(net, d, d_prime, true, config, run_rng);
    EXPECT_TRUE(result.ok());
    return result->model.FlatParams();
  };
  EXPECT_NE(run(OptimizerKind::kSgd), run(OptimizerKind::kAdam));
  EXPECT_EQ(run(OptimizerKind::kAdam), run(OptimizerKind::kAdam));
}

/// The subsampled step spelled out sequentially: per step, one Bernoulli per
/// common record in index order, then x1's when training on D, then the
/// noise; Network's reference clipped sums over the batch (x1 joins sum_d
/// in its index position); the release over q * |D| into the optimizer.
std::vector<float> ReferenceSampledRun(const Network& initial,
                                       const Dataset& d, size_t x1,
                                       bool train_on_d,
                                       const DpSgdConfig& config, Rng& rng) {
  Network model = initial.Clone();
  std::unique_ptr<Optimizer> optimizer =
      MakeOptimizer(config.optimizer, config.learning_rate);
  const double q = config.sampling_rate;
  const double n = q * static_cast<double>(d.size());
  for (size_t step = 0; step < config.epochs; ++step) {
    std::vector<bool> sampled(d.size(), false);
    for (size_t j = 0; j < d.size(); ++j) {
      sampled[j] = j != x1 && rng.Bernoulli(q);
    }
    const bool release_d = train_on_d && rng.Bernoulli(q);
    Dataset batch_d;
    Dataset batch_dprime;
    for (size_t j = 0; j < d.size(); ++j) {
      if (sampled[j]) batch_dprime.Add(d.inputs[j], d.labels[j]);
      if (sampled[j] || j == x1) batch_d.Add(d.inputs[j], d.labels[j]);
    }
    const Dataset& batch = release_d ? batch_d : batch_dprime;
    std::vector<float> released = ReferenceClippedGradientSum(
        model, batch.inputs, batch.labels, config.clip_norm);
    GaussianMechanism(config.noise_multiplier * config.clip_norm)
        .Perturb(released, rng);
    std::vector<float> mean(released.size());
    for (size_t i = 0; i < released.size(); ++i) {
      mean[i] = static_cast<float>(released[i] / n);
    }
    optimizer->Step(model, mean);
  }
  return model.FlatParams();
}

TEST(SampledDpSgdTest, MatchesTheSequentialReferenceBitForBit) {
  Rng rng(41);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(11, rng);
  for (size_t x1 : {size_t{0}, size_t{4}, size_t{10}}) {
    for (bool train_on_d : {true, false}) {
      DpSgdConfig config = FastSampledConfig();
      config.threads = 3;
      Rng run_rng(42);
      auto result = RunDpSgd(net, d, d.WithRecordRemoved(x1), train_on_d,
                             config, run_rng);
      ASSERT_TRUE(result.ok()) << result.status();
      Rng reference_rng(42);
      EXPECT_EQ(result->model.FlatParams(),
                ReferenceSampledRun(net, d, x1, train_on_d, config,
                                    reference_rng))
          << "x1 = " << x1 << ", train_on_d = " << train_on_d;
      // Both consumed exactly the same draws.
      EXPECT_EQ(run_rng.Uniform(), reference_rng.Uniform());
    }
  }
}

TEST(NonPrivateSgdTest, RejectsInvalid) {
  Rng rng(18);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(6, rng);
  Dataset empty;
  EXPECT_FALSE(RunNonPrivateSgd(net, empty, 1, 0.1, 1.0).ok());
  EXPECT_FALSE(RunNonPrivateSgd(net, d, 0, 0.1, 1.0).ok());
  EXPECT_FALSE(RunNonPrivateSgd(net, d, 1, 0.0, 1.0).ok());
}

}  // namespace
}  // namespace dpaudit
