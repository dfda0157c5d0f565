#include "nn/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/gradient_engine.h"
#include "util/math_util.h"
#include "util/random.h"

namespace dpaudit {
namespace {

Network SmallNet(Rng& rng) {
  Network net;
  net.Add(std::make_unique<Dense>(4, 6));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(6, 3));
  net.Initialize(rng);
  return net;
}

// The clip stage lives in the gradient engine; this one runs it inline.
std::unique_ptr<GradientEngine> InlineEngine(const Network& net) {
  GradientEngine::Options options;
  options.threads = 1;
  auto engine = std::make_unique<GradientEngine>(net, options);
  engine->SyncParams(net);
  return engine;
}

TEST(NetworkTest, NumParamsCountsEverything) {
  Rng rng(1);
  Network net = SmallNet(rng);
  EXPECT_EQ(net.NumParams(), 4u * 6 + 6 + 6 * 3 + 3);
}

TEST(NetworkTest, FlatParamRoundTrip) {
  Rng rng(2);
  Network net = SmallNet(rng);
  std::vector<float> params = net.FlatParams();
  ASSERT_EQ(params.size(), net.NumParams());
  std::vector<float> modified = params;
  for (float& p : modified) p += 0.5f;
  net.SetFlatParams(modified);
  EXPECT_EQ(net.FlatParams(), modified);
  net.SetFlatParams(params);
  EXPECT_EQ(net.FlatParams(), params);
}

TEST(NetworkTest, CloneIsDeepAndEqual) {
  Rng rng(3);
  Network net = SmallNet(rng);
  Network clone = net.Clone();
  EXPECT_EQ(clone.FlatParams(), net.FlatParams());
  std::vector<float> shifted = clone.FlatParams();
  shifted[0] += 1.0f;
  clone.SetFlatParams(shifted);
  EXPECT_NE(clone.FlatParams()[0], net.FlatParams()[0]);
}

TEST(NetworkTest, ApplyGradientStepMovesParams) {
  Rng rng(4);
  Network net = SmallNet(rng);
  std::vector<float> before = net.FlatParams();
  std::vector<float> grad(net.NumParams(), 1.0f);
  net.ApplyGradientStep(grad, 0.1);
  std::vector<float> after = net.FlatParams();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i], before[i] - 0.1f, 1e-6);
  }
}

TEST(NetworkTest, PerExampleGradientMatchesLossDecrease) {
  Rng rng(5);
  Network net = SmallNet(rng);
  Tensor x({4}, {0.5f, -0.3f, 0.8f, 0.1f});
  std::vector<float> grad = net.PerExampleGradient(x, 2);
  double loss_before = net.ExampleLoss(x, 2);
  net.ApplyGradientStep(grad, 0.05);
  double loss_after = net.ExampleLoss(x, 2);
  EXPECT_LT(loss_after, loss_before);
}

TEST(NetworkTest, ClippedGradientRespectsNorm) {
  Rng rng(6);
  Network net = SmallNet(rng);
  Tensor x({4}, {2.0f, -1.0f, 3.0f, 0.5f});
  const double clip = 0.01;  // force clipping
  std::vector<float> clipped =
      InlineEngine(net)->ClippedGradientSum({x}, {0}, clip);
  EXPECT_NEAR(L2Norm(clipped), clip, 1e-6);
}

TEST(NetworkTest, ClippingIsNoOpBelowThreshold) {
  Rng rng(7);
  Network net = SmallNet(rng);
  Tensor x({4}, {0.1f, 0.0f, -0.1f, 0.2f});
  std::vector<float> raw = net.PerExampleGradient(x, 1);
  std::vector<float> clipped =
      InlineEngine(net)->ClippedGradientSum({x}, {1}, 1e9);
  EXPECT_EQ(raw, clipped);
}

TEST(NetworkTest, ClippedGradientSumEqualsSumOfClippedGradients) {
  Rng rng(8);
  Network net = SmallNet(rng);
  std::vector<Tensor> inputs;
  std::vector<size_t> labels;
  Rng data_rng(9);
  for (int i = 0; i < 5; ++i) {
    Tensor x({4});
    for (float& v : x.vec()) v = static_cast<float>(data_rng.Gaussian());
    inputs.push_back(x);
    labels.push_back(static_cast<size_t>(i % 3));
  }
  const double clip = 0.5;
  std::vector<double> norms;
  std::vector<float> sum =
      InlineEngine(net)->ClippedGradientSum(inputs, labels, clip, &norms);
  ASSERT_EQ(norms.size(), 5u);
  std::vector<float> manual(net.NumParams(), 0.0f);
  for (int i = 0; i < 5; ++i) {
    std::vector<float> g = net.PerExampleGradient(inputs[i], labels[i]);
    EXPECT_DOUBLE_EQ(norms[i], L2Norm(g));
    const double scale = std::min(1.0, clip / L2Norm(g));
    for (size_t j = 0; j < manual.size(); ++j) {
      manual[j] += static_cast<float>(scale * g[j]);
    }
  }
  for (size_t j = 0; j < manual.size(); ++j) {
    EXPECT_NEAR(sum[j], manual[j], 1e-5);
  }
  // Sum of n clipped gradients has norm at most n * C.
  EXPECT_LE(L2Norm(sum), 5 * clip + 1e-6);
}

TEST(NetworkTest, PredictAndAccuracy) {
  // Identity weights: predicted class is the argmax input coordinate.
  Network fixed;
  auto dense = std::make_unique<Dense>(2, 2);
  *dense->Params()[0] = Tensor({2, 2}, {1, 0, 0, 1});
  *dense->Params()[1] = Tensor({2});
  fixed.Add(std::move(dense));
  EXPECT_EQ(fixed.Predict(Tensor({2}, {3.0f, 1.0f})), 0u);
  EXPECT_EQ(fixed.Predict(Tensor({2}, {1.0f, 3.0f})), 1u);
  std::vector<Tensor> inputs = {Tensor({2}, {3.0f, 1.0f}),
                                Tensor({2}, {1.0f, 3.0f})};
  std::vector<size_t> labels_right = {0, 1};
  std::vector<size_t> labels_half = {0, 0};
  EXPECT_DOUBLE_EQ(fixed.Accuracy(inputs, labels_right), 1.0);
  EXPECT_DOUBLE_EQ(fixed.Accuracy(inputs, labels_half), 0.5);
}

// Predictions runs packs of eight and pads the last one; every class must
// equal Predict's on the example alone.
TEST(NetworkTest, PredictionsMatchPredictAcrossPaddedPacks) {
  Rng rng(24);
  Network net = BuildMnistNetwork(12);
  net.Initialize(rng);
  for (size_t n : {1u, 7u, 8u, 11u, 17u}) {
    std::vector<Tensor> inputs;
    for (size_t i = 0; i < n; ++i) {
      Tensor x({1, 12, 12});
      for (float& v : x.vec()) v = static_cast<float>(rng.Gaussian());
      inputs.push_back(x);
    }
    const std::vector<size_t> classes = net.Predictions(inputs);
    ASSERT_EQ(n, classes.size());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(net.Predict(inputs[i]), classes[i]) << "n=" << n << " i=" << i;
    }
  }
}

// Logits is the one batched inference pass (Predictions, Accuracy and the
// MI probes read it); every row must be bit-identical to Forward's.
TEST(NetworkTest, LogitsMatchForwardAcrossPaddedPacks) {
  Rng rng(25);
  Network net = BuildMnistNetwork(12);
  net.Initialize(rng);
  for (size_t n : {0u, 1u, 7u, 8u, 11u, 17u}) {
    std::vector<Tensor> inputs;
    for (size_t i = 0; i < n; ++i) {
      Tensor x({1, 12, 12});
      for (float& v : x.vec()) v = static_cast<float>(rng.Gaussian());
      inputs.push_back(x);
    }
    const std::vector<Tensor> logits = net.Logits(inputs);
    ASSERT_EQ(n, logits.size());
    for (size_t i = 0; i < n; ++i) {
      const Tensor single = net.Forward(inputs[i]);
      ASSERT_EQ(single.shape(), logits[i].shape());
      for (size_t c = 0; c < single.size(); ++c) {
        EXPECT_EQ(single[c], logits[i][c]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(NetworkTest, LayerParamRangesTileTheFlatVector) {
  Rng rng(20);
  Network net = SmallNet(rng);  // dense + relu + dense
  std::vector<Network::ParamRange> ranges = net.LayerParamRanges();
  ASSERT_EQ(ranges.size(), 2u);  // relu has no parameters
  EXPECT_EQ(ranges[0].offset, 0u);
  EXPECT_EQ(ranges[0].size, 4u * 6 + 6);
  EXPECT_EQ(ranges[1].offset, 4u * 6 + 6);
  EXPECT_EQ(ranges[1].size, 6u * 3 + 3);
  EXPECT_EQ(ranges[0].size + ranges[1].size, net.NumParams());
}

TEST(NetworkTest, PerLayerClippingBoundsEachLayerSlice) {
  Rng rng(21);
  Network net = SmallNet(rng);
  std::vector<Tensor> inputs;
  std::vector<size_t> labels;
  Rng data_rng(22);
  for (int i = 0; i < 4; ++i) {
    Tensor x({4});
    for (float& v : x.vec()) v = static_cast<float>(data_rng.Gaussian(0, 2));
    inputs.push_back(x);
    labels.push_back(static_cast<size_t>(i % 3));
  }
  const double clip = 0.2;  // force clipping everywhere
  std::vector<float> sum =
      InlineEngine(net)->PerLayerClippedGradientSum(inputs, labels, clip);
  // Each example contributes at most clip/sqrt(L) per layer slice, so the
  // sum's slice norms are bounded by n * clip / sqrt(L).
  std::vector<Network::ParamRange> ranges = net.LayerParamRanges();
  double per_layer = clip / std::sqrt(static_cast<double>(ranges.size()));
  for (const auto& range : ranges) {
    double sq = 0.0;
    for (size_t i = range.offset; i < range.offset + range.size; ++i) {
      sq += static_cast<double>(sum[i]) * sum[i];
    }
    EXPECT_LE(std::sqrt(sq), 4 * per_layer + 1e-6);
  }
  // And the total norm respects the whole-gradient bound n * C.
  EXPECT_LE(L2Norm(sum), 4 * clip + 1e-6);
}

TEST(NetworkTest, PerLayerClippingNoOpForSmallGradients) {
  Rng rng(23);
  Network net = SmallNet(rng);
  std::vector<Tensor> inputs = {Tensor({4}, {0.01f, 0.0f, 0.01f, 0.0f})};
  std::vector<size_t> labels = {1};
  std::vector<float> per_layer =
      InlineEngine(net)->PerLayerClippedGradientSum(inputs, labels, 1e9);
  std::vector<float> flat =
      InlineEngine(net)->ClippedGradientSum(inputs, labels, 1e9);
  EXPECT_EQ(per_layer, flat);
}

TEST(NetworkTest, MnistArchitectureShapes) {
  Network net = BuildMnistNetwork();
  Rng rng(10);
  net.Initialize(rng);
  Tensor image({1, 28, 28});
  Tensor logits = net.Forward(image);
  EXPECT_EQ(logits.size(), 10u);
  EXPECT_GT(net.NumParams(), 1000u);
  EXPECT_NE(net.Describe().find("conv2d"), std::string::npos);
  EXPECT_NE(net.Describe().find("channel_norm"), std::string::npos);
}

TEST(NetworkTest, PurchaseArchitectureShapes) {
  Network net = BuildPurchaseNetwork();
  Rng rng(11);
  net.Initialize(rng);
  Tensor record({600});
  Tensor logits = net.Forward(record);
  EXPECT_EQ(logits.size(), 100u);
  EXPECT_EQ(net.NumParams(), 600u * 128 + 128 + 128 * 100 + 100);
}

TEST(NetworkTest, SmallMnistVariant) {
  Network net = BuildMnistNetwork(/*image_size=*/14, /*conv1_filters=*/2,
                                  /*conv2_filters=*/4, /*num_classes=*/10);
  Rng rng(12);
  net.Initialize(rng);
  Tensor image({1, 14, 14});
  EXPECT_EQ(net.Forward(image).size(), 10u);
}

}  // namespace
}  // namespace dpaudit
