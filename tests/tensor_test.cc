#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dpaudit {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ConstructFromData) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 1), 2.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_EQ(t.At(1, 1), 4.0f);
}

TEST(TensorTest, FullFill) {
  Tensor t = Tensor::Full({3}, 2.5f);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(t[i], 2.5f);
  t.Fill(-1.0f);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(t[i], -1.0f);
}

TEST(TensorTest, RowMajorLayoutRank3And4) {
  Tensor t3({2, 3, 4});
  t3.At(1, 2, 3) = 9.0f;
  EXPECT_EQ(t3[(1 * 3 + 2) * 4 + 3], 9.0f);
  Tensor t4({2, 2, 2, 2});
  t4.At(1, 0, 1, 0) = 5.0f;
  EXPECT_EQ(t4[((1 * 2 + 0) * 2 + 1) * 2 + 0], 5.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  t.Reshape({3, 2});
  EXPECT_EQ(t.At(2, 1), 5.0f);
  EXPECT_EQ(t.At(0, 1), 1.0f);
}

TEST(TensorDeathTest, ReshapeVolumeMismatchDies) {
  Tensor t({2, 3});
  EXPECT_DEATH(t.Reshape({4, 2}), "CHECK failed");
}

TEST(TensorDeathTest, OutOfBoundsAccessDies) {
  Tensor t({2, 2});
  EXPECT_DEATH((void)t.At(2, 0), "CHECK failed");
  EXPECT_DEATH((void)t[4], "CHECK failed");
}

TEST(TensorDeathTest, ZeroExtentDies) {
  EXPECT_DEATH(Tensor({2, 0}), "zero extent");
}

TEST(TensorTest, AxpyAndScale) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a.Axpy(0.5f, b);
  EXPECT_EQ(a[0], 6.0f);
  EXPECT_EQ(a[2], 18.0f);
  a.Scale(2.0f);
  EXPECT_EQ(a[0], 12.0f);
}

TEST(TensorTest, NormAndSum) {
  Tensor t({2}, {3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(t.L2Norm(), 5.0);
  EXPECT_DOUBLE_EQ(t.Sum(), 7.0);
}

TEST(TensorTest, AddSubDot) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 5});
  Tensor sum = Add(a, b);
  EXPECT_EQ(sum[0], 4.0f);
  EXPECT_EQ(sum[1], 7.0f);
  Tensor diff = Sub(b, a);
  EXPECT_EQ(diff[0], 2.0f);
  EXPECT_EQ(diff[1], 3.0f);
  EXPECT_DOUBLE_EQ(Dot(a, b), 13.0);
}

TEST(TensorTest, MatMulKnownValues) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.rank(), 2u);
  EXPECT_EQ(c.dim(0), 2u);
  EXPECT_EQ(c.dim(1), 2u);
  EXPECT_EQ(c.At(0, 0), 58.0f);
  EXPECT_EQ(c.At(0, 1), 64.0f);
  EXPECT_EQ(c.At(1, 0), 139.0f);
  EXPECT_EQ(c.At(1, 1), 154.0f);
}

TEST(TensorTest, MatMulIdentity) {
  Tensor eye({3, 3}, {1, 0, 0, 0, 1, 0, 0, 0, 1});
  Tensor a({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_TRUE(MatMul(eye, a) == a);
  EXPECT_TRUE(MatMul(a, eye) == a);
}

TEST(TensorTest, TransposeInvolution) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor at = Transpose(a);
  EXPECT_EQ(at.dim(0), 3u);
  EXPECT_EQ(at.At(2, 1), 6.0f);
  EXPECT_TRUE(Transpose(at) == a);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor({2, 3, 4}).ShapeString(), "[2, 3, 4]");
  EXPECT_EQ(Tensor({5}).ShapeString(), "[5]");
}

// Lane packing is a pure data move, so every check below is exact. Element
// counts straddle the 8-element transpose blocks of the AVX2 path.
std::vector<Tensor> LaneExamples(size_t lanes, size_t elems) {
  std::vector<Tensor> examples;
  for (size_t l = 0; l < lanes; ++l) {
    Tensor x({elems});
    for (size_t e = 0; e < elems; ++e) {
      x[e] = std::sin(static_cast<float>(l * 131 + e) * 0.37f) * 3.0f;
    }
    examples.push_back(std::move(x));
  }
  return examples;
}

Tensor PackAll(const std::vector<Tensor>& examples) {
  std::vector<const Tensor*> ptrs;
  for (const Tensor& x : examples) ptrs.push_back(&x);
  Tensor packed;
  PackLanes(ptrs.data(), ptrs.size(), &packed);
  return packed;
}

TEST(LanePackingTest, PackThenUnpackRoundTripsEveryLane) {
  for (size_t lanes : {1u, 3u, 8u, 13u, 32u}) {
    for (size_t elems : {1u, 7u, 8u, 9u, 67u}) {
      std::vector<Tensor> examples = LaneExamples(lanes, elems);
      Tensor packed = PackAll(examples);
      ASSERT_EQ(packed.shape(), (std::vector<size_t>{elems, lanes}));
      for (size_t l = 0; l < lanes; ++l) {
        for (size_t e = 0; e < elems; ++e) {
          ASSERT_EQ(examples[l][e], packed[e * lanes + l])
              << "lanes=" << lanes << " elems=" << elems;
        }
      }

      Tensor one;
      for (size_t l = 0; l < lanes; ++l) {
        UnpackLane(packed, l, &one);
        for (size_t e = 0; e < elems; ++e) {
          ASSERT_EQ(examples[l][e], one[e]);
        }
      }
      // All lanes, and a leading subset, lane-major.
      for (size_t count : {lanes, lanes / 2}) {
        std::vector<float> rows(count * elems);
        UnpackLanes(packed.data(), elems, lanes, count, rows.data());
        for (size_t l = 0; l < count; ++l) {
          for (size_t e = 0; e < elems; ++e) {
            ASSERT_EQ(examples[l][e], rows[l * elems + e])
                << "lanes=" << lanes << " count=" << count;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dpaudit
