// Layer-level bit-identity of the lane kernels against the plain scalar
// path of tests/reference_layers.h, at shapes that hit every register-block
// remainder: conv x blocks, channel blocks and filter blocks (and the
// weight-gradient row tiles), dense output and input blocks, channel-norm
// channel blocks. Lanes 8 run the AVX2 wrappers where the CPU has them;
// lanes 1 (the width-1 reference instance) and 3 run the portable bodies.
// Every comparison is EXPECT_EQ on floats: the contract is exact.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "nn/activations.h"
#include "nn/channel_norm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/gradient_engine.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "tensor/tensor.h"
#include "tests/reference_layers.h"
#include "tests/test_helpers.h"
#include "util/random.h"
#include "util/simd.h"

namespace dpaudit {
namespace {

using testing_helpers::ReferenceClippedGradientSum;

Tensor RandomTensor(const std::vector<size_t>& shape, Rng& rng) {
  Tensor t(shape);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Gaussian(0.0, 1.0));
  }
  return t;
}

// Values spread over 2^-20 .. 2^20, so float chains round at nearly every
// step and a kernel that reorders one fails the comparison.
Tensor WideRangeTensor(const std::vector<size_t>& shape, Rng& rng) {
  Tensor t(shape);
  for (size_t i = 0; i < t.size(); ++i) {
    const int exponent = static_cast<int>(rng.Uniform() * 41.0) - 20;
    t[i] = static_cast<float>(std::ldexp(rng.Gaussian(0.0, 1.0), exponent));
  }
  return t;
}

std::vector<Tensor> RandomExamples(const std::vector<size_t>& shape,
                                   size_t lanes, Rng& rng,
                                   bool wide_range = false) {
  std::vector<Tensor> examples;
  for (size_t l = 0; l < lanes; ++l) {
    examples.push_back(wide_range ? WideRangeTensor(shape, rng)
                                  : RandomTensor(shape, rng));
  }
  return examples;
}

Tensor Pack(const std::vector<Tensor>& examples) {
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : examples) ptrs.push_back(&t);
  Tensor packed;
  PackLanes(ptrs.data(), ptrs.size(), &packed);
  return packed;
}

using GradMaker = std::function<Tensor(const std::vector<size_t>&)>;

// The lane widths every layer is checked at.
constexpr size_t kWidths[] = {1, 3, 8};

// Runs `layer` over `inputs` on the lane path and, lane by lane, through the
// reference pass, with output gradients from `make_grad`; expects identical
// outputs, input gradients and parameter gradients.
void ExpectLanesMatchScalar(Layer& layer, const std::vector<Tensor>& inputs,
                            const GradMaker& make_grad) {
  const size_t lanes = inputs.size();
  const Tensor packed_in = Pack(inputs);
  Tensor packed_out;
  layer.ForwardBatchInto(packed_in, lanes, &packed_out);
  std::vector<size_t> out_shape = packed_out.shape();
  out_shape.pop_back();
  std::vector<Tensor> grads;
  for (size_t l = 0; l < lanes; ++l) grads.push_back(make_grad(out_shape));
  const Tensor packed_g = Pack(grads);
  Tensor packed_gi;
  layer.BackwardBatchInto(packed_g, lanes, &packed_gi);
  std::vector<LaneGradBlock> blocks;
  layer.AppendLaneGrads(&blocks);

  for (size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    const reference::ExamplePass ref =
        reference::Pass(layer, inputs[l], grads[l]);
    Tensor lane_out;
    UnpackLane(packed_out, l, &lane_out);
    ASSERT_EQ(ref.output.shape(), lane_out.shape());
    for (size_t e = 0; e < ref.output.size(); ++e) {
      ASSERT_EQ(ref.output[e], lane_out[e]) << "output " << e;
    }
    Tensor lane_gi;
    UnpackLane(packed_gi, l, &lane_gi);
    ASSERT_EQ(ref.grad_input.shape(), lane_gi.shape());
    for (size_t e = 0; e < ref.grad_input.size(); ++e) {
      ASSERT_EQ(ref.grad_input[e], lane_gi[e]) << "grad input " << e;
    }
    ASSERT_EQ(ref.param_grads.size(), blocks.size());
    for (size_t b = 0; b < blocks.size(); ++b) {
      const LaneGradBlock& block = blocks[b];
      const Tensor& pg = ref.param_grads[b];
      ASSERT_EQ(pg.size(), block.size());
      for (size_t e = 0; e < pg.size(); ++e) {
        // Each element is the float product of its row and column factors
        // (a dense dw is the outer product of the output gradient and the
        // input); rebuild it here.
        const float lane_value = block.rows[(e / block.num_cols) * lanes + l] *
                                 block.cols[(e % block.num_cols) * lanes + l];
        ASSERT_EQ(pg[e], lane_value)
            << "param grad " << b << " element " << e;
      }
    }
  }
}

// Wide-range random inputs and output gradients.
void ExpectLanesMatchScalar(Layer& layer, const std::vector<size_t>& in_shape,
                            size_t lanes, Rng& rng) {
  ExpectLanesMatchScalar(
      layer, RandomExamples(in_shape, lanes, rng, /*wide_range=*/true),
      [&rng](const std::vector<size_t>& shape) {
        return WideRangeTensor(shape, rng);
      });
}

TEST(LaneKernelsTest, ConvMatchesScalarPathAtEveryBlockRemainder) {
  Rng rng(101);
  for (size_t lanes : kWidths) {
    for (size_t k : {3u, 5u}) {
      for (size_t ow : {3u, 4u, 5u, 6u, 7u, 11u, 26u}) {
        for (size_t C : {1u, 3u, 4u, 5u}) {
          for (size_t F : {1u, 3u, 5u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "lanes=" << lanes << " k=" << k << " ow=" << ow
                         << " C=" << C << " F=" << F);
            // Seven output rows: one, two or three weight-gradient row
            // tiles, the last one partial, depending on the width.
            const size_t oh = 7;
            Conv2d conv(C, F, k);
            conv.Initialize(rng);
            ExpectLanesMatchScalar(conv, {C, oh + k - 1, ow + k - 1}, lanes,
                                   rng);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(LaneKernelsTest, DenseMatchesScalarPathAtEveryBlockRemainder) {
  Rng rng(103);
  for (size_t lanes : kWidths) {
    for (size_t in : {1u, 7u, 600u}) {
      for (size_t out : {1u, 5u, 48u}) {
        SCOPED_TRACE(::testing::Message()
                     << "lanes=" << lanes << " in=" << in << " out=" << out);
        Dense dense(in, out);
        dense.Initialize(rng);
        ExpectLanesMatchScalar(dense, {in}, lanes, rng);
        if (HasFatalFailure()) return;
        // The weight gradient is never stored: its factors are the output
        // gradient (out rows) and the cached forward input itself.
        const Tensor packed = Pack(RandomExamples({in}, lanes, rng));
        Tensor packed_out;
        dense.ForwardBatchInto(packed, lanes, &packed_out);
        dense.BackwardBatchInto(packed_out, lanes, nullptr);
        std::vector<LaneGradBlock> blocks;
        dense.AppendLaneGrads(&blocks);
        ASSERT_EQ(2u, blocks.size());
        EXPECT_EQ(out, blocks[0].num_rows);
        EXPECT_EQ(packed.data(), blocks[0].cols);
      }
    }
  }
}

TEST(LaneKernelsTest, ChannelNormMatchesScalarPathAtEveryBlockRemainder) {
  Rng rng(107);
  for (size_t lanes : kWidths) {
    for (size_t channels : {1u, 3u, 4u, 5u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << "lanes=" << lanes << " channels=" << channels);
      ChannelNorm norm(channels);
      // Non-trivial affine parameters so gamma and beta reach every chain.
      std::vector<Tensor*> params = norm.Params();
      for (Tensor* p : params) {
        for (size_t i = 0; i < p->size(); ++i) {
          (*p)[i] = static_cast<float>(rng.Gaussian(1.0, 0.5));
        }
      }
      ExpectLanesMatchScalar(norm, {channels, 6, 5}, lanes, rng);
      if (HasFatalFailure()) return;
    }
  }
}

// Max pooling with ties (values drawn from a handful of small integers, so
// windows often hold equal maxima) and trailing rows and columns that valid
// mode drops, and Relu over values that include zeros.
TEST(LaneKernelsTest, PoolAndReluMatchScalarPath) {
  Rng rng(131);
  auto small_ints = [&rng](const std::vector<size_t>& shape) {
    Tensor t(shape);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(static_cast<int>(rng.Uniform() * 5.0) - 2);
    }
    return t;
  };
  for (size_t lanes : kWidths) {
    for (size_t pool : {2u, 3u}) {
      for (size_t w : {4u, 7u, 13u}) {
        SCOPED_TRACE(::testing::Message()
                     << "lanes=" << lanes << " pool=" << pool << " w=" << w);
        MaxPool2d layer(pool);
        std::vector<Tensor> inputs;
        for (size_t l = 0; l < lanes; ++l) {
          inputs.push_back(small_ints({3, 5, w}));
        }
        ExpectLanesMatchScalar(layer, inputs,
                               [&rng](const std::vector<size_t>& shape) {
                                 return RandomTensor(shape, rng);
                               });
        if (HasFatalFailure()) return;
      }
    }
    SCOPED_TRACE(::testing::Message() << "relu lanes=" << lanes);
    Relu relu;
    std::vector<Tensor> inputs;
    for (size_t l = 0; l < lanes; ++l) inputs.push_back(small_ints({19}));
    ExpectLanesMatchScalar(relu, inputs,
                           [&rng](const std::vector<size_t>& shape) {
                             return RandomTensor(shape, rng);
                           });
    if (HasFatalFailure()) return;
  }
}

// Double chains of float products are nearly order-blind: their rounding
// errors sit far below the float they are rounded to. Two huge terms that
// cancel exactly — one at the start of a plane, one at its end — make the
// small terms added between them round against them, so the float result
// shows a kernel that regroups the chain (say, tiles visited out of order).
// Covers the conv weight-grad and bias chains (inputs all one, so every
// tap sees the cancelling pair), the channel-norm sum(g) chain and the
// dense forward chain.
constexpr float kHuge = 1099511627776.0f;  // 2^40

Tensor CancellingTensor(const std::vector<size_t>& shape, size_t planes,
                        Rng& rng) {
  Tensor t = RandomTensor(shape, rng);
  const size_t plane = t.size() / planes;
  for (size_t p = 0; p < planes; ++p) {
    t[p * plane] = kHuge;
    t[p * plane + plane - 1] = -kHuge;
  }
  return t;
}

TEST(LaneKernelsTest, CancellingDoubleChainsKeepTheirOrder) {
  Rng rng(127);
  for (size_t lanes : kWidths) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    for (size_t ow : {11u, 26u}) {
      Conv2d conv(3, 3, 3);
      conv.Initialize(rng);
      std::vector<Tensor> ones(lanes, Tensor({3, 9, ow + 2}));
      for (Tensor& t : ones) t.Fill(1.0f);
      ExpectLanesMatchScalar(conv, ones,
                             [&rng](const std::vector<size_t>& shape) {
                               return CancellingTensor(shape, shape[0], rng);
                             });
      if (HasFatalFailure()) return;
    }
    ChannelNorm norm(5);
    ExpectLanesMatchScalar(norm, RandomExamples({5, 6, 5}, lanes, rng),
                           [&rng](const std::vector<size_t>& shape) {
                             return CancellingTensor(shape, shape[0], rng);
                           });
    if (HasFatalFailure()) return;
    Dense dense(600, 5);
    dense.Initialize(rng);
    Tensor& weight = *dense.Params()[0];
    for (size_t o = 0; o < 5; ++o) weight[o * 600 + 599] = weight[o * 600];
    std::vector<Tensor> inputs;
    for (size_t l = 0; l < lanes; ++l) {
      inputs.push_back(CancellingTensor({600}, 1, rng));
    }
    ExpectLanesMatchScalar(dense, inputs,
                           [&rng](const std::vector<size_t>& shape) {
                             return RandomTensor(shape, rng);
                           });
    if (HasFatalFailure()) return;
  }
}

// The audit benchmark's networks end to end: 8 lanes through the engine at
// 1 and 4 threads against the sequential width-1 reference, gradients and
// norms. 13 examples leave a 5-example tail, which is padded.
TEST(LaneKernelsTest, AuditSizeNetworksBitIdenticalThroughEngine) {
  struct Case {
    const char* name;
    Network net;
    std::vector<size_t> shape;
    size_t classes;
  };
  std::vector<Case> cases;
  cases.push_back({"mnist28", BuildMnistNetwork(28, 4, 8), {1, 28, 28}, 10});
  cases.push_back({"purchase", BuildPurchaseNetwork(600, 48, 30), {600}, 30});
  for (Case& c : cases) {
    Rng rng(109);
    c.net.Initialize(rng);
    std::vector<Tensor> inputs = RandomExamples(c.shape, 13, rng);
    std::vector<size_t> labels;
    for (size_t j = 0; j < inputs.size(); ++j) labels.push_back(j % c.classes);
    std::vector<double> ref_norms;
    const std::vector<float> ref =
        ReferenceClippedGradientSum(c.net, inputs, labels, 1.0, &ref_norms);
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << c.name << " threads=" << threads);
      GradientEngine::Options options;
      options.threads = threads;
      options.batch_lanes = 8;
      GradientEngine engine(c.net, options);
      engine.SyncParams(c.net);
      std::vector<double> norms;
      const std::vector<float> sum =
          engine.ClippedGradientSum(inputs, labels, 1.0, &norms);
      ASSERT_EQ(ref.size(), sum.size());
      for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(ref[i], sum[i]) << i;
      ASSERT_EQ(ref_norms.size(), norms.size());
      for (size_t i = 0; i < norms.size(); ++i) {
        EXPECT_EQ(ref_norms[i], norms[i]) << i;
      }
    }
  }
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The premise behind AddExactProduct: a product of two floats is exact in
// double, so fusing it into the add rounds exactly like mul-then-add.
TEST(LaneKernelsTest, FusedExactProductMatchesMulThenAdd) {
  using Limits = std::numeric_limits<float>;
  std::vector<float> floats = {0.0f,
                               -0.0f,
                               1.0f,
                               -1.0f,
                               Limits::min(),
                               -Limits::min(),
                               Limits::denorm_min(),
                               -Limits::denorm_min(),
                               Limits::max(),
                               -Limits::max(),
                               Limits::epsilon(),
                               1.0f + Limits::epsilon(),
                               3.0f * Limits::denorm_min(),
                               Limits::min() - Limits::denorm_min()};
  Rng rng(113);
  for (int i = 0; i < 200; ++i) {
    floats.push_back(static_cast<float>(rng.Gaussian(0.0, 1.0)));
    floats.push_back(static_cast<float>(rng.Gaussian(0.0, 1.0)) *
                     std::ldexp(1.0f, static_cast<int>(rng.Uniform() * 250) -
                                          125));
    // Random subnormals.
    floats.push_back(static_cast<float>(rng.Uniform()) * Limits::min());
  }
  std::vector<double> addends = {0.0,
                                 -0.0,
                                 1.0,
                                 -1.0,
                                 std::numeric_limits<double>::min(),
                                 std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::max(),
                                 -std::numeric_limits<double>::max(),
                                 1e300,
                                 -1e-300};
  for (int i = 0; i < 20; ++i) addends.push_back(rng.Gaussian(0.0, 1e3));
  size_t checked = 0;
  for (size_t ia = 0; ia < floats.size(); ia += 3) {
    for (size_t ib = 1; ib < floats.size(); ib += 7) {
      const double a = floats[ia];
      const double b = floats[ib];
      for (double c : addends) {
        const double fused = std::fma(a, b, c);
        const double separate = c + a * b;
        ASSERT_EQ(Bits(separate), Bits(fused))
            << "a=" << a << " b=" << b << " c=" << c;
        ASSERT_EQ(Bits(separate),
                  Bits(AddExactProduct<true>(c, a, b)));
        ASSERT_EQ(Bits(separate),
                  Bits(AddExactProduct<false>(c, a, b)));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10000u);
}

}  // namespace
}  // namespace dpaudit
