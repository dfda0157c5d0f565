#include "core/neighbor_sums.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic_mnist.h"
#include "data/synthetic_purchase.h"
#include "nn/gradient_engine.h"
#include "nn/network.h"
#include "tests/test_helpers.h"
#include "util/random.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ClipTierTest;
using testing_helpers::ExtremeBoundedNeighbor;
using testing_helpers::ReferenceClippedGradientSum;
using testing_helpers::ReferencePerLayerClippedGradientSum;
using testing_helpers::TinyNetwork;
using testing_helpers::kClasses;
using testing_helpers::kFeatures;

void ExpectSumsBitIdentical(const NeighborSums& a, const NeighborSums& b) {
  ASSERT_EQ(a.sum_d.size(), b.sum_d.size());
  for (size_t i = 0; i < a.sum_d.size(); ++i) {
    EXPECT_EQ(a.sum_d[i], b.sum_d[i]) << "sum_d[" << i << "]";
  }
  ASSERT_EQ(a.sum_dprime.size(), b.sum_dprime.size());
  for (size_t i = 0; i < a.sum_dprime.size(); ++i) {
    EXPECT_EQ(a.sum_dprime[i], b.sum_dprime[i]) << "sum_dprime[" << i << "]";
  }
  ASSERT_EQ(a.norms_d.size(), b.norms_d.size());
  for (size_t i = 0; i < a.norms_d.size(); ++i) {
    EXPECT_EQ(a.norms_d[i], b.norms_d[i]) << "norms_d[" << i << "]";
  }
  ASSERT_EQ(a.norms_dprime.size(), b.norms_dprime.size());
  for (size_t i = 0; i < a.norms_dprime.size(); ++i) {
    EXPECT_EQ(a.norms_dprime[i], b.norms_dprime[i])
        << "norms_dprime[" << i << "]";
  }
}

TEST(AnalyzeNeighborOverlapTest, BoundedSingleReplacement) {
  Rng rng(1);
  Dataset d = BlobDataset(8, rng);
  for (size_t k : {size_t{0}, size_t{3}, size_t{7}}) {
    Tensor x({kFeatures});
    x.Fill(9.0f);
    Dataset d_prime = d.WithRecordReplaced(k, std::move(x), kClasses - 1);
    NeighborOverlap overlap =
        AnalyzeNeighborOverlap(d, d_prime, NeighborMode::kBounded);
    EXPECT_TRUE(overlap.sharable);
    EXPECT_EQ(k, overlap.diff_index);
  }
}

TEST(AnalyzeNeighborOverlapTest, BoundedLabelOnlyDifferenceCounts) {
  Rng rng(2);
  Dataset d = BlobDataset(5, rng);
  Dataset d_prime = d.WithRecordReplaced(2, d.inputs[2],
                                         (d.labels[2] + 1) % kClasses);
  NeighborOverlap overlap =
      AnalyzeNeighborOverlap(d, d_prime, NeighborMode::kBounded);
  EXPECT_TRUE(overlap.sharable);
  EXPECT_EQ(2u, overlap.diff_index);
}

TEST(AnalyzeNeighborOverlapTest, BoundedIdenticalDatasets) {
  Rng rng(3);
  Dataset d = BlobDataset(4, rng);
  NeighborOverlap overlap = AnalyzeNeighborOverlap(d, d, NeighborMode::kBounded);
  EXPECT_TRUE(overlap.sharable);
  EXPECT_EQ(0u, overlap.diff_index);
}

TEST(AnalyzeNeighborOverlapTest, BoundedRejectsTwoDifferences) {
  Rng rng(4);
  Dataset d = BlobDataset(6, rng);
  Tensor x({kFeatures});
  x.Fill(9.0f);
  Dataset d_prime = d.WithRecordReplaced(1, x, 0);
  d_prime = d_prime.WithRecordReplaced(4, std::move(x), 0);
  EXPECT_FALSE(
      AnalyzeNeighborOverlap(d, d_prime, NeighborMode::kBounded).sharable);
}

TEST(AnalyzeNeighborOverlapTest, BoundedRejectsSizeMismatch) {
  Rng rng(5);
  Dataset d = BlobDataset(6, rng);
  EXPECT_FALSE(AnalyzeNeighborOverlap(d, d.WithRecordRemoved(0),
                                      NeighborMode::kBounded)
                   .sharable);
}

TEST(AnalyzeNeighborOverlapTest, UnboundedRemoval) {
  Rng rng(6);
  Dataset d = BlobDataset(7, rng);
  for (size_t k : {size_t{0}, size_t{4}, size_t{6}}) {
    NeighborOverlap overlap = AnalyzeNeighborOverlap(
        d, d.WithRecordRemoved(k), NeighborMode::kUnbounded);
    EXPECT_TRUE(overlap.sharable);
    EXPECT_EQ(k, overlap.diff_index);
  }
}

TEST(AnalyzeNeighborOverlapTest, UnboundedRejectsUnrelatedRemainder) {
  Rng rng(7);
  Dataset d = BlobDataset(6, rng);
  Dataset d_prime = d.WithRecordRemoved(2);
  Tensor x({kFeatures});
  x.Fill(9.0f);
  d_prime = d_prime.WithRecordReplaced(4, std::move(x), 0);
  EXPECT_FALSE(
      AnalyzeNeighborOverlap(d, d_prime, NeighborMode::kUnbounded).sharable);
}

// gtest names each case after the raw bytes of its parameter, and ctest
// registers the cases under those names. The three bytes after `per_layer`
// used to be implicit padding, so the names depended on whatever the stack
// held. `name_bytes` makes them explicit: the struct has no padding and every
// case name stays fixed. The values keep the names the cases already have.
struct SharingCase {
  NeighborMode mode;
  bool per_layer;
  uint8_t name_bytes[3];
  size_t diff_index;
};
static_assert(sizeof(SharingCase) == 16, "SharingCase must have no padding");

class NeighborSharingTest : public ::testing::TestWithParam<SharingCase> {};

TEST_P(NeighborSharingTest, SharedPathMatchesTwoPassBitwise) {
  const SharingCase& c = GetParam();
  Rng rng(31);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(12, rng);
  Dataset d_prime = c.mode == NeighborMode::kBounded
                        ? d.WithRecordReplaced(
                              c.diff_index,
                              [&] {
                                Tensor x({kFeatures});
                                x.Fill(4.0f);
                                return x;
                              }(),
                              kClasses - 1)
                        : d.WithRecordRemoved(c.diff_index);

  NeighborOverlap overlap = AnalyzeNeighborOverlap(d, d_prime, c.mode);
  ASSERT_TRUE(overlap.sharable);
  ASSERT_EQ(c.diff_index, overlap.diff_index);

  GradientEngine::Options options;
  options.threads = 2;
  GradientEngine engine(net, options);
  engine.SyncParams(net);

  const double clip = 0.75;
  NeighborSums shared = ComputeClippedNeighborSums(engine, d, d_prime, overlap,
                                                   c.mode, clip, c.per_layer);
  NeighborSums two_pass =
      ComputeClippedNeighborSumsTwoPass(engine, d, d_prime, clip, c.per_layer);
  ExpectSumsBitIdentical(shared, two_pass);

  // The norm streams feed adaptive clipping; in per-layer mode clipping is
  // per layer and no whole-gradient stream is produced.
  if (c.per_layer) {
    EXPECT_TRUE(shared.norms_d.empty());
    EXPECT_TRUE(shared.norms_dprime.empty());
  } else {
    EXPECT_EQ(d.size(), shared.norms_d.size());
    EXPECT_EQ(d_prime.size(), shared.norms_dprime.size());
  }

  // And both must match the sequential reference directly.
  auto reference = [&](const Dataset& data) {
    return c.per_layer ? ReferencePerLayerClippedGradientSum(
                             net, data.inputs, data.labels, clip)
                       : ReferenceClippedGradientSum(net, data.inputs,
                                                     data.labels, clip);
  };
  std::vector<float> ref_d = reference(d);
  std::vector<float> ref_dprime = reference(d_prime);
  ASSERT_EQ(ref_d.size(), shared.sum_d.size());
  for (size_t i = 0; i < ref_d.size(); ++i) {
    EXPECT_EQ(ref_d[i], shared.sum_d[i]) << i;
  }
  ASSERT_EQ(ref_dprime.size(), shared.sum_dprime.size());
  for (size_t i = 0; i < ref_dprime.size(); ++i) {
    EXPECT_EQ(ref_dprime[i], shared.sum_dprime[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, NeighborSharingTest,
    ::testing::Values(
        SharingCase{NeighborMode::kBounded, false, {0x00, 0x00, 0x00}, 0},
        SharingCase{NeighborMode::kBounded, false, {0x3B, 0x2C, 0x00}, 5},
        SharingCase{NeighborMode::kBounded, false, {0x00, 0xD0, 0xEF}, 11},
        SharingCase{NeighborMode::kBounded, true, {0x00, 0x00, 0x00}, 5},
        SharingCase{NeighborMode::kUnbounded, false, {0x00, 0x00, 0x00}, 0},
        SharingCase{NeighborMode::kUnbounded, false, {0x1E, 0x09, 0x00}, 6},
        SharingCase{NeighborMode::kUnbounded, false, {0x00, 0xD0, 0xCA}, 11},
        SharingCase{NeighborMode::kUnbounded, true, {0x00, 0x00, 0x00}, 6}));

TEST(NeighborSharingTest, IdenticalDatasetsShareEverything) {
  Rng rng(37);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(8, rng);

  NeighborOverlap overlap =
      AnalyzeNeighborOverlap(d, d, NeighborMode::kBounded);
  ASSERT_TRUE(overlap.sharable);

  GradientEngine engine(net);
  engine.SyncParams(net);
  NeighborSums shared = ComputeClippedNeighborSums(
      engine, d, d, overlap, NeighborMode::kBounded, 1.0, false);
  NeighborSums two_pass =
      ComputeClippedNeighborSumsTwoPass(engine, d, d, 1.0, false);
  ExpectSumsBitIdentical(shared, two_pass);
}

TEST(NeighborSharingTest, PoissonBatchRestrictsTheCommonRecords) {
  // A batch keeps the sampled common records in both sums and x1 in sum_d
  // always: the two-pass sums over (batch + x1, batch). An all-set batch is
  // the unbatched call.
  Rng rng(41);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(13, rng);
  const size_t x1 = 5;
  Dataset d_prime = d.WithRecordRemoved(x1);
  NeighborOverlap overlap =
      AnalyzeNeighborOverlap(d, d_prime, NeighborMode::kUnbounded);
  ASSERT_TRUE(overlap.sharable);
  ASSERT_EQ(overlap.diff_index, x1);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    GradientEngine::Options options;
    options.threads = threads;
    GradientEngine engine(net, options);
    engine.SyncParams(net);

    std::vector<uint8_t> all(d.size(), 1);
    ExpectSumsBitIdentical(
        ComputeClippedNeighborSums(engine, d, d_prime, overlap,
                                   NeighborMode::kUnbounded, 0.7, false,
                                   &all),
        ComputeClippedNeighborSums(engine, d, d_prime, overlap,
                                   NeighborMode::kUnbounded, 0.7, false));

    std::vector<uint8_t> batch(d.size(), 0);
    Dataset with_x1;
    Dataset without_x1;
    for (size_t j = 0; j < d.size(); ++j) {
      batch[j] = j % 3 == 0 ? 1 : 0;  // x1's flag (0 here) is ignored
      if (batch[j] != 0) without_x1.Add(d.inputs[j], d.labels[j]);
      if (batch[j] != 0 || j == x1) with_x1.Add(d.inputs[j], d.labels[j]);
    }
    ExpectSumsBitIdentical(
        ComputeClippedNeighborSums(engine, d, d_prime, overlap,
                                   NeighborMode::kUnbounded, 0.7, false,
                                   &batch),
        ComputeClippedNeighborSumsTwoPass(engine, with_x1, without_x1, 0.7,
                                          false));
  }
}

// The audit benchmark's networks through the clip stage: the 28x28 MNIST
// conv net (4/8 filters) and the 600-48-30 Purchase MLP, whose dense layers
// hand over factored weight gradients. n = 16 records make two full packs
// of D at 8 lanes. Bounded k = 7 puts d_k and d'_k in different packs and
// k = n - 1 puts d'_k in a one-example padded tail; unbounded k = n - 1
// leaves D's last pack with only one example in sum_dprime. Every record
// has some zero features, so dense products of a negative output gradient
// with a zero input are -0. C is the median norm, so some examples are
// clipped and some are not.
struct AuditShape {
  std::string name;
  Network net;
  Dataset d;
  Tensor replacement;
};

AuditShape MakeAuditShape(bool purchase) {
  constexpr size_t kRecords = 16;
  Rng rng(purchase ? 71 : 73);
  AuditShape shape;
  shape.name = purchase ? "purchase" : "mnist";
  shape.net = purchase ? BuildPurchaseNetwork(600, 48, 30)
                       : BuildMnistNetwork(28, 4, 8);
  shape.net.Initialize(rng);
  const size_t classes = purchase ? 30 : 10;
  SyntheticMnistConfig mnist_config;
  SyntheticPurchaseGenerator generator(SyntheticPurchaseConfig{}, 5);
  auto sample = [&](size_t label) {
    Tensor x = purchase ? generator.Sample(label, rng)
                        : RenderSyntheticDigit(label, mnist_config, rng);
    for (size_t i = 0; i < x.size(); i += 7) x[i] = 0.0f;
    return x;
  };
  for (size_t j = 0; j < kRecords; ++j) {
    shape.d.Add(sample(j % classes), j % classes);
  }
  shape.replacement = sample(classes - 1);
  return shape;
}

void ExpectAuditShapeBitIdentical(AuditShape& shape) {
  const size_t n = shape.d.size();
  using NormMode = GradientEngine::NormMode;
  for (NormMode norm_mode : {NormMode::kWhole, NormMode::kPerLayer}) {
    const bool per_layer = norm_mode == NormMode::kPerLayer;
    std::vector<double> norms;
    ReferenceClippedGradientSum(shape.net, shape.d.inputs, shape.d.labels,
                                1.0, &norms);
    std::nth_element(norms.begin(), norms.begin() + norms.size() / 2,
                     norms.end());
    const double clip = norms[norms.size() / 2];
    auto reference = [&](const Dataset& data) {
      return per_layer ? ReferencePerLayerClippedGradientSum(
                             shape.net, data.inputs, data.labels, clip)
                       : ReferenceClippedGradientSum(shape.net, data.inputs,
                                                     data.labels, clip);
    };
    struct Neighbour {
      NeighborMode mode;
      size_t k;
    };
    const std::vector<Neighbour> neighbours = {
        {NeighborMode::kBounded, 0},       {NeighborMode::kBounded, 3},
        {NeighborMode::kBounded, 7},       {NeighborMode::kBounded, n - 1},
        {NeighborMode::kUnbounded, 0},     {NeighborMode::kUnbounded, 7},
        {NeighborMode::kUnbounded, n - 1}};
    for (const Neighbour& nb : neighbours) {
      const Dataset d_prime =
          nb.mode == NeighborMode::kBounded
              ? shape.d.WithRecordReplaced(nb.k, shape.replacement, 1)
              : shape.d.WithRecordRemoved(nb.k);
      const NeighborOverlap overlap =
          AnalyzeNeighborOverlap(shape.d, d_prime, nb.mode);
      ASSERT_TRUE(overlap.sharable);
      const std::vector<float> ref_d = reference(shape.d);
      const std::vector<float> ref_dprime = reference(d_prime);
      for (size_t lanes : {1u, 8u}) {
        for (size_t threads : {1u, 4u, 13u}) {
          SCOPED_TRACE(::testing::Message()
                       << shape.name << " per_layer=" << per_layer
                       << (nb.mode == NeighborMode::kBounded ? " bounded"
                                                             : " unbounded")
                       << " k=" << nb.k << " lanes=" << lanes
                       << " threads=" << threads);
          GradientEngine::Options options;
          options.threads = threads;
          options.batch_lanes = lanes;
          GradientEngine engine(shape.net, options);
          engine.SyncParams(shape.net);
          const NeighborSums shared = ComputeClippedNeighborSums(
              engine, shape.d, d_prime, overlap, nb.mode, clip, per_layer);
          const NeighborSums two_pass = ComputeClippedNeighborSumsTwoPass(
              engine, shape.d, d_prime, clip, per_layer);
          ExpectSumsBitIdentical(shared, two_pass);
          ASSERT_EQ(ref_d.size(), shared.sum_d.size());
          ASSERT_EQ(ref_dprime.size(), shared.sum_dprime.size());
          for (size_t i = 0; i < ref_d.size(); ++i) {
            ASSERT_EQ(ref_d[i], shared.sum_d[i]) << i;
            ASSERT_EQ(ref_dprime[i], shared.sum_dprime[i]) << i;
          }
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// Both audit networks at every clip-stage tier.
class NeighborSharingAuditShapeTest : public ClipTierTest {};

TEST_P(NeighborSharingAuditShapeTest, PurchaseNetBitIdenticalToReferences) {
  AuditShape shape = MakeAuditShape(/*purchase=*/true);
  ExpectAuditShapeBitIdentical(shape);
}

TEST_P(NeighborSharingAuditShapeTest, MnistNetBitIdenticalToReferences) {
  AuditShape shape = MakeAuditShape(/*purchase=*/false);
  ExpectAuditShapeBitIdentical(shape);
}

INSTANTIATE_CLIP_TIERS(NeighborSharingAuditShapeTest);

}  // namespace
}  // namespace dpaudit
