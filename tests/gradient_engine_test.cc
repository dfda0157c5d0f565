#include "nn/gradient_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
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
using testing_helpers::ClipTierTest;
using testing_helpers::ReferenceClippedGradientSum;
using testing_helpers::ReferencePerLayerClippedGradientSum;
using testing_helpers::TinyNetwork;

// The engine's determinism contract is exact: for any thread count and lane
// width its sums must be bit-identical to the sequential width-1 reference
// (ReferenceClippedGradientSum), so every comparison below
// is EXPECT_EQ on floats, not a tolerance check.

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
  Dataset d = BlobDataset(23, rng);  // several packs on several participants

  std::vector<double> ref_norms;
  std::vector<float> ref =
      ReferenceClippedGradientSum(net, d.inputs, d.labels, 1.0, &ref_norms);

  GradientEngine::Options options;
  options.threads = threads;
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
      ReferencePerLayerClippedGradientSum(net, d.inputs, d.labels, 1.0);

  GradientEngine::Options options;
  options.threads = threads;
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
      ReferenceClippedGradientSum(net, d.inputs, d.labels, 2.0, &ref_norms);

  GradientEngine::Options options;
  options.threads = threads;
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

// For every lane width B (including B that leaves a ragged final pack, and
// the width-1 reference itself) and every thread count, the engine must be
// bit-identical to the sequential width-1 reference — gradients AND norms.
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
      ReferenceClippedGradientSum(net, d.inputs, d.labels, 1.0, &ref_norms);

  GradientEngine::Options options;
  options.threads = threads;
  options.batch_lanes = lanes;
  GradientEngine engine(net, options);
  EXPECT_EQ(lanes, engine.batch_lanes());
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
      ReferenceClippedGradientSum(net, d.inputs, d.labels, 2.0, &ref_norms);

  GradientEngine::Options options;
  options.threads = threads;
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
      ReferencePerLayerClippedGradientSum(net, d.inputs, d.labels, 1.0);

  GradientEngine::Options options;
  options.threads = threads;
  options.batch_lanes = lanes;
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  std::vector<float> sum =
      engine.PerLayerClippedGradientSum(d.inputs, d.labels, 1.0);

  ASSERT_EQ(ref.size(), sum.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], sum[i]) << i;
}

// The clip stage computes lane norms in lanes over the layers' gradient
// blocks, and recomputes the dense layers' factored weight gradients,
// rather than running L2Norm and AccumulateScaled over a stored flat
// gradient. Pin both norm modes, per layer included, on the conv net, whose
// gradient blocks straddle the 8-element vectors. With an unclipped C, a sum
// that only example j joins is example j's gradient itself, so sum A
// (example j) and sum B (example j + 1) read single gradients back through
// the clip stage, from full and padded packs alike.
TEST_P(BatchLanesTest, VisitorNormsBitIdenticalToL2NormOnConvNetwork) {
  const size_t lanes = std::get<0>(GetParam());
  const size_t threads = std::get<1>(GetParam());
  Rng rng(41);
  Network net = BuildMnistNetwork(12);
  net.Initialize(rng);
  Dataset d = MnistBlobs(11, rng);
  const std::vector<Network::ParamRange> ranges = net.LayerParamRanges();
  std::vector<const Tensor*> inputs;
  std::vector<std::vector<float>> refs;
  for (size_t j = 0; j < d.size(); ++j) {
    inputs.push_back(&d.inputs[j]);
    refs.push_back(net.PerExampleGradient(d.inputs[j], d.labels[j]));
  }

  GradientEngine::Options options;
  options.threads = threads;
  options.batch_lanes = lanes;
  GradientEngine engine(net, options);
  engine.SyncParams(net);
  using NormMode = GradientEngine::NormMode;
  for (NormMode mode : {NormMode::kWhole, NormMode::kPerLayer}) {
    for (size_t j = 0; j < d.size(); ++j) {
      const size_t next = (j + 1) % d.size();
      std::vector<uint8_t> sums(d.size(), 0);
      sums[j] |= GradientEngine::kSumA;
      sums[next] |= GradientEngine::kSumB;
      GradientEngine::ClippedSums out =
          engine.ClipAndSum(inputs, d.labels, sums, mode, 1e30);
      ASSERT_EQ(refs[j].size(), out.sum_a.size());
      for (size_t i = 0; i < refs[j].size(); ++i) {
        ASSERT_EQ(refs[j][i], out.sum_a[i]) << "j=" << j << " i=" << i;
        ASSERT_EQ(refs[next][i], out.sum_b[i]) << "j=" << next << " i=" << i;
      }
      // Norms come out for every example, joined to a sum or not.
      if (mode == NormMode::kWhole) {
        ASSERT_EQ(d.size(), out.norms.size());
        for (size_t k = 0; k < d.size(); ++k) {
          EXPECT_EQ(L2Norm(refs[k]), out.norms[k]) << "k=" << k;
        }
      } else {
        ASSERT_EQ(d.size() * ranges.size(), out.norms.size());
        for (size_t k = 0; k < d.size(); ++k) {
          for (size_t r = 0; r < ranges.size(); ++r) {
            EXPECT_EQ(
                L2Norm(refs[k].data() + ranges[r].offset, ranges[r].size),
                out.norms[k * ranges.size() + r])
                << "k=" << k << " r=" << r;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LanesByThreads, BatchLanesTest,
    ::testing::Combine(::testing::Values(1u, 3u, 8u, 13u),
                       ::testing::Values(1u, 4u, 13u)));

// More packs than the record ring holds (two per participant), at width 1
// and 8, at every clip-stage tier: participants wait for their slot's
// previous pack to be reduced, and the reducer turn passes between them many
// times per call.
class GradientEngineRegionTest : public ClipTierTest {};

TEST_P(GradientEngineRegionTest, RecordRingWrapsBitIdenticalToNetwork) {
  Rng rng(41);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(101, rng);

  std::vector<double> ref_norms;
  std::vector<float> ref =
      ReferenceClippedGradientSum(net, d.inputs, d.labels, 1.0, &ref_norms);

  for (size_t threads : {2u, 4u}) {
    for (size_t lanes : {1u, 8u}) {
      GradientEngine::Options options;
      options.threads = threads;
      options.batch_lanes = lanes;
      GradientEngine engine(net, options);
      ASSERT_EQ(GetParam(), engine.simd_tier());
      engine.SyncParams(net);
      std::vector<double> norms;
      std::vector<float> sum =
          engine.ClippedGradientSum(d.inputs, d.labels, 1.0, &norms);
      EXPECT_EQ(ref, sum) << "threads=" << threads << " lanes=" << lanes;
      EXPECT_EQ(ref_norms, norms)
          << "threads=" << threads << " lanes=" << lanes;
    }
  }
}

INSTANTIATE_CLIP_TIERS(GradientEngineRegionTest);

// Every pack runs at the engine's width: a ragged tail of any size 1..7 is
// padded to 8 lanes with copies of its last example, and the padded lanes
// never reach the sums or the norms. Pin every tail size, alone and after a
// full pack, on the conv net, where the padded packs run the width-pinned
// fast kernels, against the width-1 engine, whose packs are never padded,
// at every clip-stage tier.
class BatchLanesRaggedTest : public ClipTierTest {};

TEST_P(BatchLanesRaggedTest, EveryTailSizeIsPaddedBitIdenticalToWidthOne) {
  for (size_t n = 1; n < 16; ++n) {
    if (n == 8) continue;  // no tail
    Rng rng(37);
    Network net = BuildMnistNetwork(12);
    net.Initialize(rng);
    Dataset d = MnistBlobs(n, rng);
    for (size_t threads : {1u, 4u}) {
      std::vector<float> sums[2];
      std::vector<double> norms[2];
      const size_t widths[2] = {1, 8};
      for (size_t w = 0; w < 2; ++w) {
        GradientEngine::Options options;
        options.threads = threads;
        options.batch_lanes = widths[w];
        GradientEngine engine(net, options);
        engine.SyncParams(net);
        sums[w] = engine.ClippedGradientSum(d.inputs, d.labels, 2.0, &norms[w]);
      }
      EXPECT_EQ(sums[0], sums[1]) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(norms[0], norms[1]) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(n, norms[1].size());
    }
  }
}

INSTANTIATE_CLIP_TIERS(BatchLanesRaggedTest);

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
  std::vector<float> ref =
      ReferenceClippedGradientSum(net, d.inputs, d.labels, 1.0);
  std::vector<float> fresh = engine.ClippedGradientSum(d.inputs, d.labels, 1.0);
  ASSERT_EQ(ref.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) EXPECT_EQ(ref[i], fresh[i]);
}

// Per-layer norms come back example-major in ascending example order, and a
// one-example sum at an unclipped C is that example's gradient.
TEST(GradientEngineApiTest, VisitorSeesAscendingIndicesAndLayerNorms) {
  Rng rng(19);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(10, rng);
  std::vector<const Tensor*> inputs;
  for (const Tensor& x : d.inputs) inputs.push_back(&x);

  GradientEngine::Options options;
  options.threads = 3;
  GradientEngine engine(net, options);
  engine.SyncParams(net);

  const std::vector<Network::ParamRange> ranges = net.LayerParamRanges();
  for (size_t j = 0; j < d.size(); ++j) {
    std::vector<uint8_t> sums(d.size(), 0);
    sums[j] = GradientEngine::kSumA;
    GradientEngine::ClippedSums out = engine.ClipAndSum(
        inputs, d.labels, sums, GradientEngine::NormMode::kPerLayer, 1e30);
    ASSERT_EQ(d.size() * ranges.size(), out.norms.size());
    for (size_t k = 0; k < d.size(); ++k) {
      const std::vector<float> ref =
          net.PerExampleGradient(d.inputs[k], d.labels[k]);
      for (size_t r = 0; r < ranges.size(); ++r) {
        EXPECT_EQ(L2Norm(ref.data() + ranges[r].offset, ranges[r].size),
                  out.norms[k * ranges.size() + r])
            << "k=" << k << " r=" << r;
      }
      if (k != j) continue;
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], out.sum_a[i]) << "j=" << j << " i=" << i;
        ASSERT_EQ(0.0f, out.sum_b[i]) << "j=" << j << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace dpaudit
