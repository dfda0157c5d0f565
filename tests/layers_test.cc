#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/activations.h"
#include "nn/channel_norm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "tests/gradient_check.h"
#include "util/random.h"

namespace dpaudit {
namespace {

// Drives one example through a layer's lane entry points as a pack of one
// (the example's shape + [1]). Holds the packed input, which the layer
// reads again in the backward pass.
class PackOfOne {
 public:
  explicit PackOfOne(Layer& layer) : layer_(layer) {}

  Tensor Forward(const Tensor& x) {
    const Tensor* example = &x;
    PackLanes(&example, 1, &input_);
    layer_.ForwardBatchInto(input_, 1, &output_);
    Tensor y;
    UnpackLane(output_, 0, &y);
    return y;
  }

  Tensor Backward(const Tensor& g) {
    const Tensor* example = &g;
    PackLanes(&example, 1, &grad_output_);
    layer_.BackwardBatchInto(grad_output_, 1, &grad_input_);
    Tensor gx;
    UnpackLane(grad_input_, 0, &gx);
    return gx;
  }

 private:
  Layer& layer_;
  Tensor input_, output_, grad_output_, grad_input_;
};

TEST(DenseTest, ForwardKnownValues) {
  Dense dense(2, 2);
  // W = [[1, 2], [3, 4]], b = [0.5, -0.5].
  std::vector<Tensor*> params = dense.Params();
  *params[0] = Tensor({2, 2}, {1, 2, 3, 4});
  *params[1] = Tensor({2}, {0.5f, -0.5f});
  Tensor y = PackOfOne(dense).Forward(Tensor({2}, {1.0f, 1.0f}));
  EXPECT_FLOAT_EQ(y[0], 3.5f);
  EXPECT_FLOAT_EQ(y[1], 6.5f);
}

TEST(DenseTest, FlattensInputImplicitly) {
  Dense dense(6, 2);
  Rng rng(1);
  dense.Initialize(rng);
  Tensor image({1, 2, 3}, {1, 2, 3, 4, 5, 6});
  PackOfOne pass(dense);
  Tensor y = pass.Forward(image);
  EXPECT_EQ(y.size(), 2u);
  // Backward must return the input's original shape.
  Tensor gx = pass.Backward(Tensor({2}, {1.0f, 0.0f}));
  EXPECT_EQ(gx.shape(), image.shape());
}

TEST(DenseTest, InitializationBounds) {
  Dense dense(50, 30);
  Rng rng(2);
  dense.Initialize(rng);
  double limit = std::sqrt(6.0 / 80.0);
  for (float w : dense.Params()[0]->vec()) {
    EXPECT_GE(w, -limit);
    EXPECT_LE(w, limit);
  }
  for (float b : dense.Params()[1]->vec()) EXPECT_EQ(b, 0.0f);
}

TEST(ReluTest, ForwardBackward) {
  Relu relu;
  PackOfOne pass(relu);
  Tensor y = pass.Forward(Tensor({4}, {-1.0f, 0.0f, 2.0f, -3.0f}));
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor g = pass.Backward(Tensor({4}, {1.0f, 1.0f, 1.0f, 1.0f}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);  // blocked: input < 0
  EXPECT_FLOAT_EQ(g[1], 0.0f);  // blocked at exactly 0
  EXPECT_FLOAT_EQ(g[2], 1.0f);
}

TEST(Conv2dTest, ForwardKnownValues) {
  Conv2d conv(1, 1, 2);
  // Kernel [[1, 0], [0, 1]] (trace filter), bias 1.
  *conv.Params()[0] = Tensor({1, 1, 2, 2}, {1, 0, 0, 1});
  *conv.Params()[1] = Tensor({1}, {1.0f});
  Tensor x({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = PackOfOne(conv).Forward(x);
  ASSERT_EQ(y.dim(1), 2u);
  EXPECT_FLOAT_EQ(y.At(0, 0, 0), 1 + 5 + 1);
  EXPECT_FLOAT_EQ(y.At(0, 0, 1), 2 + 6 + 1);
  EXPECT_FLOAT_EQ(y.At(0, 1, 1), 5 + 9 + 1);
}

TEST(MaxPoolTest, ForwardPicksMaxima) {
  MaxPool2d pool(2);
  Tensor x({1, 4, 4}, {1, 2,  3,  4,
                       5, 6,  7,  8,
                       9, 10, 11, 12,
                       13, 14, 15, 16});
  Tensor y = PackOfOne(pool).Forward(x);
  ASSERT_EQ(y.dim(1), 2u);
  EXPECT_FLOAT_EQ(y.At(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(y.At(0, 0, 1), 8.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1, 0), 14.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1, 1), 16.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  PackOfOne pass(pool);
  (void)pass.Forward(Tensor({1, 2, 2}, {1, 9, 3, 4}));
  Tensor g = pass.Backward(Tensor({1, 1, 1}, {5.0f}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 5.0f);  // argmax position
  EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(MaxPoolTest, DropsTrailingRowsInValidMode) {
  MaxPool2d pool(2);
  Tensor y = PackOfOne(pool).Forward(Tensor({1, 5, 5}));
  EXPECT_EQ(y.dim(1), 2u);
  EXPECT_EQ(y.dim(2), 2u);
}

TEST(ChannelNormTest, NormalizesPerChannel) {
  ChannelNorm norm(2);
  Tensor x({2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = PackOfOne(norm).Forward(x);
  for (size_t c = 0; c < 2; ++c) {
    double mean = 0.0;
    for (size_t i = 0; i < 4; ++i) mean += y.At(c, i / 2, i % 2);
    EXPECT_NEAR(mean / 4.0, 0.0, 1e-5);
    double var = 0.0;
    for (size_t i = 0; i < 4; ++i) {
      double v = y.At(c, i / 2, i % 2);
      var += v * v;
    }
    EXPECT_NEAR(var / 4.0, 1.0, 1e-3);
  }
}

TEST(ChannelNormTest, GammaBetaApply) {
  ChannelNorm norm(1);
  *norm.Params()[0] = Tensor({1}, {2.0f});  // gamma
  *norm.Params()[1] = Tensor({1}, {1.0f});  // beta
  Tensor x({1, 1, 2}, {0.0f, 1.0f});
  Tensor y = PackOfOne(norm).Forward(x);
  // Normalized values are -1 and +1 (up to epsilon), so outputs ~ -1 and 3.
  EXPECT_NEAR(y[0], -1.0, 2e-2);
  EXPECT_NEAR(y[1], 3.0, 2e-2);
}

TEST(LayerCloneTest, ClonePreservesParamsButDecouples) {
  Dense dense(3, 2);
  Rng rng(3);
  dense.Initialize(rng);
  std::unique_ptr<Layer> clone = dense.Clone();
  EXPECT_EQ(*clone->Params()[0], *dense.Params()[0]);
  // Mutating the clone must not touch the original.
  (*clone->Params()[0])[0] += 1.0f;
  EXPECT_NE((*clone->Params()[0])[0], (*dense.Params()[0])[0]);
}

// Gradient checks: build a one-layer (plus head) network around each layer
// type and compare analytic vs numeric gradients.

TEST(GradientCheckTest, DenseNetwork) {
  Network net;
  net.Add(std::make_unique<Dense>(6, 4));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(4, 3));
  Rng rng(7);
  net.Initialize(rng);
  Tensor x({6}, {0.5f, -0.2f, 0.3f, 0.9f, -0.7f, 0.1f});
  GradientCheckResult result = CheckNetworkGradient(net, x, 1);
  EXPECT_LT(result.max_rel_error, 5e-2);
  EXPECT_LT(result.max_abs_error, 1e-2);
}

TEST(GradientCheckTest, ConvPoolNetwork) {
  Network net;
  net.Add(std::make_unique<Conv2d>(1, 2, 3));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<MaxPool2d>(2));
  net.Add(std::make_unique<Dense>(2 * 3 * 3, 3));
  Rng rng(8);
  net.Initialize(rng);
  Rng data_rng(9);
  Tensor x({1, 8, 8});
  for (float& v : x.vec()) v = static_cast<float>(data_rng.Uniform());
  GradientCheckResult result = CheckNetworkGradient(net, x, 2);
  EXPECT_LT(result.max_rel_error, 5e-2);
}

TEST(GradientCheckTest, ChannelNormNetwork) {
  Network net;
  net.Add(std::make_unique<Conv2d>(1, 2, 3));
  net.Add(std::make_unique<ChannelNorm>(2));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(2 * 6 * 6, 3));
  Rng rng(10);
  net.Initialize(rng);
  Rng data_rng(11);
  Tensor x({1, 8, 8});
  for (float& v : x.vec()) v = static_cast<float>(data_rng.Uniform());
  GradientCheckResult result = CheckNetworkGradient(net, x, 0, 1e-3, 3);
  EXPECT_LT(result.max_rel_error, 8e-2);
}

}  // namespace
}  // namespace dpaudit
