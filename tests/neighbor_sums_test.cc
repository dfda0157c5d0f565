#include "core/neighbor_sums.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nn/gradient_engine.h"
#include "tests/test_helpers.h"
#include "util/random.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ExtremeBoundedNeighbor;
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
  options.chunk = 3;
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

  // And both must match the Network reference directly.
  std::vector<float> ref_d =
      c.per_layer ? net.PerLayerClippedGradientSum(d.inputs, d.labels, clip)
                  : net.ClippedGradientSum(d.inputs, d.labels, clip);
  std::vector<float> ref_dprime =
      c.per_layer
          ? net.PerLayerClippedGradientSum(d_prime.inputs, d_prime.labels, clip)
          : net.ClippedGradientSum(d_prime.inputs, d_prime.labels, clip);
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

}  // namespace
}  // namespace dpaudit
