#include "nn/dense.h"

#include <cmath>
#include <sstream>

#include "tensor/tensor.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/simd.h"

namespace dpaudit {
namespace {

// ---- Batched lane kernels --------------------------------------------------
//
// One body per direction for the portable path (runtime `lanes`); the AVX2
// wrappers transcribe them with intrinsics at 8 lanes, because the
// autovectorizer spills or shuffles the blocked accumulators. Lanes are
// independent examples, so vectorizing across them reorders nothing: every
// lane's accumulation chain is the bias-first, ascending-i chain, hence
// bit-identical outputs for any lane count. Each pass register-blocks
// several outputs (resp. inputs) so their independent chains hide the add
// latency; blocking interleaves chains without reordering any of them. The
// forward chain adds products of two floats in double, which the AVX2
// forward fuses into FMAs without changing a bit.

constexpr size_t kDenseOBlock = 4;  // forward: outputs per pass
constexpr size_t kDenseIBlock = 4;  // grad input: inputs per pass

// Outputs o .. o + kOB - 1: each widened input lane vector is shared by the
// block's rows.
template <size_t kOB>
DPAUDIT_LANE_INLINE void DenseForwardLanesBlock(
    const float* __restrict__ w, const float* __restrict__ b,
    const float* __restrict__ x, float* __restrict__ out, size_t o,
    size_t in, size_t lanes) {
  double acc[kOB][kMaxBatchLanes];
  for (size_t j = 0; j < kOB; ++j) {
    for (size_t l = 0; l < lanes; ++l) acc[j][l] = b[o + j];
  }
  for (size_t i = 0; i < in; ++i) {
    const float* xl = x + i * lanes;
    double xd[kMaxBatchLanes];
    for (size_t l = 0; l < lanes; ++l) xd[l] = static_cast<double>(xl[l]);
    for (size_t j = 0; j < kOB; ++j) {
      const double wi = w[(o + j) * in + i];
      for (size_t l = 0; l < lanes; ++l) acc[j][l] += wi * xd[l];
    }
  }
  for (size_t j = 0; j < kOB; ++j) {
    float* ol = out + (o + j) * lanes;
    for (size_t l = 0; l < lanes; ++l) ol[l] = static_cast<float>(acc[j][l]);
  }
}

DPAUDIT_LANE_INLINE void DenseForwardLanesBody(const float* w, const float* b,
                                               const float* x, float* out,
                                               size_t in, size_t out_features,
                                               size_t lanes) {
  size_t o = 0;
  for (; o + kDenseOBlock <= out_features; o += kDenseOBlock) {
    DenseForwardLanesBlock<kDenseOBlock>(w, b, x, out, o, in, lanes);
  }
  for (; o < out_features; ++o) {
    DenseForwardLanesBlock<1>(w, b, x, out, o, in, lanes);
  }
}

// grad input of inputs i .. i + kIB - 1: each element's lane accumulator
// stays in registers across the o loop, summing in ascending output order,
// and each output-gradient load is shared by the block.
template <size_t kIB>
DPAUDIT_LANE_INLINE void DenseGradInputLanesBlock(
    const float* __restrict__ w, const float* __restrict__ g,
    float* __restrict__ gx, size_t i, size_t in, size_t out_features,
    size_t lanes) {
  float acc[kIB][kMaxBatchLanes];
  for (size_t j = 0; j < kIB; ++j) {
    for (size_t l = 0; l < lanes; ++l) acc[j][l] = 0.0f;
  }
  for (size_t o = 0; o < out_features; ++o) {
    const float* gol = g + o * lanes;
    for (size_t j = 0; j < kIB; ++j) {
      const float wv = w[o * in + i + j];
      for (size_t l = 0; l < lanes; ++l) acc[j][l] += gol[l] * wv;
    }
  }
  for (size_t j = 0; j < kIB; ++j) {
    float* gxl = gx + (i + j) * lanes;
    for (size_t l = 0; l < lanes; ++l) gxl[l] = acc[j][l];
  }
}

DPAUDIT_LANE_INLINE void DenseGradInputLanesBody(const float* __restrict__ w,
                                                  const float* __restrict__ g,
                                                  float* __restrict__ gx,
                                                  size_t in,
                                                  size_t out_features,
                                                  size_t lanes) {
  size_t i = 0;
  for (; i + kDenseIBlock <= in; i += kDenseIBlock) {
    DenseGradInputLanesBlock<kDenseIBlock>(w, g, gx, i, in, out_features,
                                           lanes);
  }
  for (; i < in; ++i) {
    DenseGradInputLanesBlock<1>(w, g, gx, i, in, out_features, lanes);
  }
}

#if defined(DPAUDIT_X86_DISPATCH)
// DenseForwardLanesBlock<kOB> at eight lanes: each output's lanes are two
// 4-wide double accumulators, every chain is the bias-first, ascending-i
// chain, and each exact w * x product is fused into its add.
template <size_t kOB>
__attribute__((target("avx2,fma"), always_inline)) inline void
DenseForwardLanes8Block(const float* w, const float* b, const float* x,
                        float* out, size_t o, size_t in) {
  __m256d acc[kOB][2];
  const float* wrow[kOB];
  for (size_t j = 0; j < kOB; ++j) {
    acc[j][0] = acc[j][1] = _mm256_set1_pd(static_cast<double>(b[o + j]));
    wrow[j] = w + (o + j) * in;
  }
  for (size_t i = 0; i < in; ++i) {
    const __m256d x0 = _mm256_cvtps_pd(_mm_loadu_ps(x + i * 8));
    const __m256d x1 = _mm256_cvtps_pd(_mm_loadu_ps(x + i * 8 + 4));
    for (size_t j = 0; j < kOB; ++j) {
      const __m256d wv = _mm256_set1_pd(static_cast<double>(wrow[j][i]));
      acc[j][0] = _mm256_fmadd_pd(wv, x0, acc[j][0]);
      acc[j][1] = _mm256_fmadd_pd(wv, x1, acc[j][1]);
    }
  }
  for (size_t j = 0; j < kOB; ++j) {
    _mm_storeu_ps(out + (o + j) * 8, _mm256_cvtpd_ps(acc[j][0]));
    _mm_storeu_ps(out + (o + j) * 8 + 4, _mm256_cvtpd_ps(acc[j][1]));
  }
}

__attribute__((target("avx2,fma"))) void DenseForwardLanes8Avx2Fma(
    const float* w, const float* b, const float* x, float* out, size_t in,
    size_t out_features) {
  size_t o = 0;
  for (; o + kDenseOBlock <= out_features; o += kDenseOBlock) {
    DenseForwardLanes8Block<kDenseOBlock>(w, b, x, out, o, in);
  }
  for (; o < out_features; ++o) {
    DenseForwardLanes8Block<1>(w, b, x, out, o, in);
  }
}

// DenseGradInputLanesBlock<kIB> at eight lanes: one ymm per input,
// explicit mul-then-add, ascending output order.
template <size_t kIB>
__attribute__((target("avx2"), always_inline)) inline void
DenseGradInputLanes8Block(const float* w, const float* g, float* gx, size_t i,
                          size_t in, size_t out_features) {
  __m256 acc[kIB];
  for (size_t j = 0; j < kIB; ++j) acc[j] = _mm256_setzero_ps();
  for (size_t o = 0; o < out_features; ++o) {
    const __m256 gv = _mm256_loadu_ps(g + o * 8);
    for (size_t j = 0; j < kIB; ++j) {
      acc[j] = _mm256_add_ps(
          acc[j], _mm256_mul_ps(gv, _mm256_broadcast_ss(w + o * in + i + j)));
    }
  }
  for (size_t j = 0; j < kIB; ++j) _mm256_storeu_ps(gx + (i + j) * 8, acc[j]);
}

// The grad-input chains sum in ascending output order, so results are
// bit-identical to the portable body.
__attribute__((target("avx2"))) void DenseGradInputLanes8Avx2(
    const float* w, const float* g, float* gx, size_t in,
    size_t out_features) {
  size_t i = 0;
  for (; i + kDenseIBlock <= in; i += kDenseIBlock) {
    DenseGradInputLanes8Block<kDenseIBlock>(w, g, gx, i, in, out_features);
  }
  for (; i < in; ++i) {
    DenseGradInputLanes8Block<1>(w, g, gx, i, in, out_features);
  }
}
#endif  // DPAUDIT_X86_DISPATCH

}  // namespace

Dense::Dense(size_t in_features, size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}) {
  DPAUDIT_CHECK_GT(in_, 0u);
  DPAUDIT_CHECK_GT(out_, 0u);
}

void Dense::Initialize(Rng& rng) {
  // Glorot/Xavier uniform: U(-limit, limit), limit = sqrt(6 / (in + out)).
  double limit = std::sqrt(6.0 / static_cast<double>(in_ + out_));
  for (float& w : weight_.vec()) {
    w = static_cast<float>(rng.Uniform(-limit, limit));
  }
  bias_.Fill(0.0f);
}

void Dense::ForwardBatchInto(const Tensor& input, size_t lanes,
                             Tensor* output) {
  DPAUDIT_CHECK_GT(lanes, 0u);
  DPAUDIT_CHECK_LE(lanes, kMaxBatchLanes);
  DPAUDIT_CHECK_EQ(input.size(), in_ * lanes)
      << "dense expects lane volume " << in_ * lanes << ", got "
      << input.ShapeString();
  last_batch_input_ = &input;
  batch_lanes_ = lanes;
  output->ResizeTo({out_, lanes});
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && HasAvx2Fma()) {
    DenseForwardLanes8Avx2Fma(weight_.data(), bias_.data(), input.data(),
                              output->data(), in_, out_);
    return;
  }
#endif
  DenseForwardLanesBody(weight_.data(), bias_.data(), input.data(),
                        output->data(), in_, out_, lanes);
}

void Dense::BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                              Tensor* grad_input) {
  DPAUDIT_CHECK(last_batch_input_ != nullptr) << "Backward before Forward";
  DPAUDIT_CHECK_EQ(lanes, batch_lanes_);
  DPAUDIT_CHECK_EQ(grad_output.size(), out_ * lanes);
  // The bias gradient is the output gradient itself. The weight gradient
  // stays factored as its outer product with the cached input (see
  // AppendLaneGrads), so the pass stores no [out * in, lanes] block.
  lane_delta_.assign(grad_output.data(), grad_output.data() + out_ * lanes);
  if (grad_input == nullptr) return;
  grad_input->ResizeTo(last_batch_input_->shape());
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && HasAvx2()) {
    DenseGradInputLanes8Avx2(weight_.data(), grad_output.data(),
                             grad_input->data(), in_, out_);
    return;
  }
#endif
  DenseGradInputLanesBody(weight_.data(), grad_output.data(),
                          grad_input->data(), in_, out_, lanes);
}

void Dense::AppendLaneGrads(std::vector<LaneGradBlock>* blocks) const {
  // dw[o][i] = delta_o * x_i, one float product per element.
  blocks->push_back(
      {lane_delta_.data(), out_, last_batch_input_->data(), in_});
  blocks->push_back(LaneGradBlock::Stored(lane_delta_.data(), out_));
}

std::unique_ptr<Layer> Dense::Clone() const {
  auto copy = std::make_unique<Dense>(in_, out_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

std::string Dense::Name() const {
  std::ostringstream os;
  os << "dense(" << in_ << "->" << out_ << ")";
  return os.str();
}

}  // namespace dpaudit
