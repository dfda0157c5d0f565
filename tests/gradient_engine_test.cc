#include "nn/gradient_engine.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "data/dataset.h"
#include "nn/network.h"
#include "tests/test_helpers.h"
#include "util/math_util.h"
#include "util/random.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::TinyNetwork;

// The engine's determinism contract is exact: for any thread count its sums
// must be bit-identical to the sequential reference in Network, so every
// comparison below is EXPECT_EQ on floats, not a tolerance check.

Dataset MnistBlobs(size_t count, Rng& rng) {
  Dataset d;
  for (size_t i = 0; i < count; ++i) {
    Tensor x({1, 12, 12});
    for (size_t j = 0; j < x.size(); ++j) {
      x[j] = static_cast<float>(rng.Gaussian(0.0, 1.0));
    }
    d.Add(std::move(x), i % 10);
  }
  return d;
}

class GradientEngineTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GradientEngineTest, ClippedGradientSumMatchesNetworkBitwise) {
  const size_t threads = GetParam();
  Rng rng(7);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(23, rng);  // not a multiple of the chunk size

  std::vector<double> ref_norms;
  std::vector<float> ref =
      net.ClippedGradientSum(d.inputs, d.labels, 1.0, &ref_norms);

  GradientEngine::Options options;
  options.threads = threads;
  options.chunk = 4;  // force several waves in parallel mode
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  std::vector<double> norms;
  std::vector<float> sum =
      engine.ClippedGradientSum(d.inputs, d.labels, 1.0, &norms);

  ASSERT_EQ(ref.size(), sum.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], sum[i]) << i;
  ASSERT_EQ(ref_norms.size(), norms.size());
  for (size_t i = 0; i < norms.size(); ++i) {
    EXPECT_EQ(ref_norms[i], norms[i]) << i;
  }
}

TEST_P(GradientEngineTest, PerLayerClippedGradientSumMatchesNetworkBitwise) {
  const size_t threads = GetParam();
  Rng rng(11);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(17, rng);

  std::vector<float> ref =
      net.PerLayerClippedGradientSum(d.inputs, d.labels, 1.0);

  GradientEngine::Options options;
  options.threads = threads;
  options.chunk = 4;
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  std::vector<float> sum =
      engine.PerLayerClippedGradientSum(d.inputs, d.labels, 1.0);

  ASSERT_EQ(ref.size(), sum.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], sum[i]) << i;
}

TEST_P(GradientEngineTest, ConvolutionalNetworkMatchesNetworkBitwise) {
  const size_t threads = GetParam();
  Rng rng(13);
  Network net = BuildMnistNetwork(12);
  net.Initialize(rng);
  Dataset d = MnistBlobs(9, rng);

  std::vector<double> ref_norms;
  std::vector<float> ref =
      net.ClippedGradientSum(d.inputs, d.labels, 2.0, &ref_norms);

  GradientEngine::Options options;
  options.threads = threads;
  options.chunk = 2;
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  std::vector<double> norms;
  std::vector<float> sum =
      engine.ClippedGradientSum(d.inputs, d.labels, 2.0, &norms);

  ASSERT_EQ(ref.size(), sum.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], sum[i]) << i;
  ASSERT_EQ(ref_norms.size(), norms.size());
  for (size_t i = 0; i < norms.size(); ++i) {
    EXPECT_EQ(ref_norms[i], norms[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GradientEngineTest,
                         ::testing::Values(1u, 2u, 8u));

// Batched lane path: for every lane count B (including B > chunk and B that
// leaves a ragged final pack) and every thread count, the lane engine must be
// bit-identical to both the scalar-path engine (batch_lanes = 0) and the
// sequential Network reference — gradients AND norms.
class BatchLanesTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(BatchLanesTest, DenseNetworkBitIdenticalToScalarPath) {
  const size_t lanes = std::get<0>(GetParam());
  const size_t threads = std::get<1>(GetParam());
  Rng rng(23);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(23, rng);  // 23 % B != 0 for B in {3, 8, 13}

  std::vector<double> ref_norms;
  std::vector<float> ref =
      net.ClippedGradientSum(d.inputs, d.labels, 1.0, &ref_norms);

  GradientEngine::Options options;
  options.threads = threads;
  options.chunk = 4;
  options.batch_lanes = lanes;
  GradientEngine engine(net, options);
  EXPECT_EQ(lanes <= 1 ? 0u : lanes, engine.batch_lanes());
  engine.SyncParams(net);
  std::vector<double> norms;
  std::vector<float> sum =
      engine.ClippedGradientSum(d.inputs, d.labels, 1.0, &norms);

  ASSERT_EQ(ref.size(), sum.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], sum[i]) << i;
  ASSERT_EQ(ref_norms.size(), norms.size());
  for (size_t i = 0; i < norms.size(); ++i) {
    EXPECT_EQ(ref_norms[i], norms[i]) << i;
  }
}

TEST_P(BatchLanesTest, ConvolutionalNetworkBitIdenticalToScalarPath) {
  const size_t lanes = std::get<0>(GetParam());
  const size_t threads = std::get<1>(GetParam());
  Rng rng(29);
  Network net = BuildMnistNetwork(12);
  net.Initialize(rng);
  Dataset d = MnistBlobs(11, rng);  // ragged final pack for B in {3, 8, 13}

  std::vector<double> ref_norms;
  std::vector<float> ref =
      net.ClippedGradientSum(d.inputs, d.labels, 2.0, &ref_norms);

  GradientEngine::Options options;
  options.threads = threads;
  options.chunk = 2;  // < B for most cases: chunk must round up to a pack
  options.batch_lanes = lanes;
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  std::vector<double> norms;
  std::vector<float> sum =
      engine.ClippedGradientSum(d.inputs, d.labels, 2.0, &norms);

  ASSERT_EQ(ref.size(), sum.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], sum[i]) << i;
  ASSERT_EQ(ref_norms.size(), norms.size());
  for (size_t i = 0; i < norms.size(); ++i) {
    EXPECT_EQ(ref_norms[i], norms[i]) << i;
  }
}

TEST_P(BatchLanesTest, PerLayerClippingBitIdenticalToScalarPath) {
  const size_t lanes = std::get<0>(GetParam());
  const size_t threads = std::get<1>(GetParam());
  Rng rng(31);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(17, rng);

  std::vector<float> ref =
      net.PerLayerClippedGradientSum(d.inputs, d.labels, 1.0);

  GradientEngine::Options options;
  options.threads = threads;
  options.chunk = 4;
  options.batch_lanes = lanes;
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  std::vector<float> sum =
      engine.PerLayerClippedGradientSum(d.inputs, d.labels, 1.0);

  ASSERT_EQ(ref.size(), sum.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], sum[i]) << i;
}

// Lane norms come out of the unpack pass, in lanes, rather than from L2Norm
// over the unpacked gradient. Pin both norm modes, per layer included, on
// the conv net, whose gradient blocks straddle the 8-element transpose.
TEST_P(BatchLanesTest, VisitorNormsBitIdenticalToL2NormOnConvNetwork) {
  const size_t lanes = std::get<0>(GetParam());
  const size_t threads = std::get<1>(GetParam());
  Rng rng(41);
  Network net = BuildMnistNetwork(12);
  net.Initialize(rng);
  Dataset d = MnistBlobs(11, rng);
  const std::vector<Network::ParamRange> ranges = net.LayerParamRanges();

  GradientEngine::Options options;
  options.threads = threads;
  options.chunk = 2;
  options.batch_lanes = lanes;
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  using NormMode = GradientEngine::NormMode;
  for (NormMode mode : {NormMode::kWhole, NormMode::kPerLayer}) {
    size_t visited = 0;
    engine.VisitPerExampleGradients(
        d.inputs, d.labels, mode,
        [&](size_t j, const GradientEngine::PerExampleGradView& view) {
          std::vector<float> ref =
              net.PerExampleGradient(d.inputs[j], d.labels[j]);
          for (size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(ref[i], view.grad[i]) << "j=" << j << " i=" << i;
          }
          if (mode == NormMode::kWhole) {
            EXPECT_EQ(L2Norm(ref), view.norm) << "j=" << j;
            EXPECT_EQ(nullptr, view.layer_norms);
          } else {
            for (size_t r = 0; r < ranges.size(); ++r) {
              EXPECT_EQ(L2Norm(ref.data() + ranges[r].offset, ranges[r].size),
                        view.layer_norms[r])
                  << "j=" << j << " r=" << r;
            }
          }
          ++visited;
        });
    EXPECT_EQ(d.size(), visited);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LanesByThreads, BatchLanesTest,
    ::testing::Combine(::testing::Values(1u, 3u, 8u, 13u),
                       ::testing::Values(1u, 4u, 13u)));

// A ragged tail pack takes one of two routes: counts <= B/2 run the scalar
// path, larger counts are padded to the full lane width (padded lanes are
// discarded). Pin both sides of the boundary at B = 8 — tails of 4 (last
// scalar-route count) and 5 (first padded count), plus datasets small
// enough that the tail is the only pack — on the conv net, where the
// padded route engages the width-pinned fast kernels.
TEST(BatchLanesRaggedTest, TailRouteBoundaryBitIdenticalToScalarPath) {
  for (size_t n : {4u, 5u, 12u, 13u}) {
    Rng rng(37);
    Network net = BuildMnistNetwork(12);
    net.Initialize(rng);
    Dataset d = MnistBlobs(n, rng);

    std::vector<double> ref_norms;
    std::vector<float> ref =
        net.ClippedGradientSum(d.inputs, d.labels, 2.0, &ref_norms);

    GradientEngine::Options options;
    options.threads = 1;
    options.batch_lanes = 8;
    GradientEngine engine(net, options);
    engine.SyncParams(net);
    std::vector<double> norms;
    std::vector<float> sum =
        engine.ClippedGradientSum(d.inputs, d.labels, 2.0, &norms);

    ASSERT_EQ(ref.size(), sum.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i], sum[i]) << "n=" << n << " i=" << i;
    }
    ASSERT_EQ(ref_norms.size(), norms.size());
    for (size_t i = 0; i < norms.size(); ++i) {
      EXPECT_EQ(ref_norms[i], norms[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(GradientEngineApiTest, SyncParamsTracksUpdatedWeights) {
  Rng rng(17);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(6, rng);

  GradientEngine::Options options;
  options.threads = 2;
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  std::vector<float> before =
      engine.ClippedGradientSum(d.inputs, d.labels, 1.0);

  // Move the weights; without a fresh SyncParams the engine must keep
  // evaluating at the old parameters, after it must match the new ones.
  net.ApplyGradientStep(before, 0.1 / static_cast<double>(d.size()));
  std::vector<float> stale = engine.ClippedGradientSum(d.inputs, d.labels, 1.0);
  ASSERT_EQ(before.size(), stale.size());
  for (size_t i = 0; i < stale.size(); ++i) EXPECT_EQ(before[i], stale[i]);

  engine.SyncParams(net);
  std::vector<float> ref = net.ClippedGradientSum(d.inputs, d.labels, 1.0);
  std::vector<float> fresh = engine.ClippedGradientSum(d.inputs, d.labels, 1.0);
  ASSERT_EQ(ref.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) EXPECT_EQ(ref[i], fresh[i]);
}

TEST(GradientEngineApiTest, VisitorSeesAscendingIndicesAndLayerNorms) {
  Rng rng(19);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(10, rng);

  GradientEngine::Options options;
  options.threads = 3;
  options.chunk = 2;
  GradientEngine engine(net, options);
  engine.SyncParams(net);

  const size_t num_layers = net.LayerParamRanges().size();
  size_t expected = 0;
  engine.VisitPerExampleGradients(
      d.inputs, d.labels, GradientEngine::NormMode::kPerLayer,
      [&](size_t j, const GradientEngine::PerExampleGradView& view) {
        EXPECT_EQ(expected, j);
        ++expected;
        ASSERT_NE(nullptr, view.layer_norms);
        for (size_t l = 0; l < num_layers; ++l) {
          EXPECT_GE(view.layer_norms[l], 0.0);
        }
      });
  EXPECT_EQ(d.size(), expected);
}

}  // namespace
}  // namespace dpaudit
