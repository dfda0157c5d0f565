#include "nn/conv2d.h"

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
// Bodies shared between the portable path (runtime `lanes`, runtime kernel
// size) and the AVX2 wrappers (lanes pinned to 8, kernel pinned to 3 so the
// tap loops fully unroll and each lane accumulator lives in one or two ymm
// registers). Lanes are independent examples, and each lane's addition
// chains are fixed — forward: bias first, then input channels ascending with
// taps in (ky, kx) order; weight grad: one double accumulator per (tap,
// lane) advanced in (y, x) order; grad input: per element taps in (f, ky,
// kx) ascending order; bias grad: plane in index order — so per-lane results
// are bit-identical for any lane count.
//
// Vectorizing across lanes leaves one chain per output element, so each
// pass also register-blocks several independent outputs (adjacent x,
// channels or filters) to hide the add latency. Blocking interleaves chains
// but never reorders the operations within one, so it changes no result.
// Double chains that add a product of two floats use AddExactProduct, which
// the AVX2 wrappers fuse into one FMA without changing a bit.

constexpr size_t kConvXBlock = 4;  // forward: adjacent outputs per pass
constexpr size_t kConvCBlock = 4;  // grad input: input channels per pass
constexpr size_t kConvFBlock = 4;  // weight grad: filters per tile sweep
constexpr size_t kBiasFBlock = 4;  // bias grad: filters per pass

// Forward for the kXB adjacent outputs (y, x .. x + kXB - 1) of one filter
// (weights kf = [C, k, k]). In lane-SoA form those outputs are one
// contiguous run of kXB * lanes accumulators, and so are the inputs each tap
// multiplies into them, so the block is a single flat lane loop.
template <size_t kXB>
DPAUDIT_LANE_INLINE void ConvForwardLanesBlock(
    const float* __restrict__ in, const float* __restrict__ kf, float bf,
    float* __restrict__ ov, size_t C, size_t k, size_t h, size_t w, size_t y,
    size_t x, size_t lanes) {
  const size_t n = kXB * lanes;
  float acc[kXB * kMaxBatchLanes];
  for (size_t e = 0; e < n; ++e) acc[e] = bf;
  for (size_t c = 0; c < C; ++c) {
    const float* in_plane = in + c * h * w * lanes;
    const float* kp = kf + c * k * k;
    for (size_t ky = 0; ky < k; ++ky) {
      const float* iv = in_plane + ((y + ky) * w + x) * lanes;
      const float* krow = kp + ky * k;
      for (size_t kx = 0; kx < k; ++kx) {
        const float kv = krow[kx];
        const float* ivx = iv + kx * lanes;
        for (size_t e = 0; e < n; ++e) acc[e] += kv * ivx[e];
      }
    }
  }
  for (size_t e = 0; e < n; ++e) ov[e] = acc[e];
}

DPAUDIT_LANE_INLINE void ConvForwardLanesBody(
    const float* __restrict__ in, const float* __restrict__ weights,
    const float* __restrict__ bias, float* __restrict__ out, size_t C,
    size_t F, size_t k, size_t h, size_t w, size_t oh, size_t ow,
    size_t lanes) {
  for (size_t f = 0; f < F; ++f) {
    const float* kf = weights + f * C * k * k;
    for (size_t y = 0; y < oh; ++y) {
      float* out_row = out + (f * oh + y) * ow * lanes;
      size_t x = 0;
      for (; x + kConvXBlock <= ow; x += kConvXBlock) {
        ConvForwardLanesBlock<kConvXBlock>(in, kf, bias[f],
                                           out_row + x * lanes, C, k, h, w, y,
                                           x, lanes);
      }
      for (; x < ow; ++x) {
        ConvForwardLanesBlock<1>(in, kf, bias[f], out_row + x * lanes, C, k,
                                 h, w, y, x, lanes);
      }
    }
  }
}

// Bias gradients of the kFB filter planes at gp (n elements each).
template <size_t kFB>
DPAUDIT_LANE_INLINE void ConvBiasGradLanesBlock(const float* __restrict__ gp,
                                                float* __restrict__ db,
                                                size_t n, size_t lanes) {
  double acc[kFB * kMaxBatchLanes];
  for (size_t e = 0; e < kFB * lanes; ++e) acc[e] = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kFB; ++j) {
      const float* gv = gp + (j * n + i) * lanes;
      for (size_t l = 0; l < lanes; ++l) acc[j * lanes + l] += gv[l];
    }
  }
  for (size_t e = 0; e < kFB * lanes; ++e) db[e] = static_cast<float>(acc[e]);
}

DPAUDIT_LANE_INLINE void ConvBiasGradLanesBody(const float* __restrict__ g,
                                               float* __restrict__ dbias,
                                               size_t F, size_t n,
                                               size_t lanes) {
  size_t f = 0;
  for (; f + kBiasFBlock <= F; f += kBiasFBlock) {
    ConvBiasGradLanesBlock<kBiasFBlock>(g + f * n * lanes, dbias + f * lanes,
                                        n, lanes);
  }
  for (; f < F; ++f) {
    ConvBiasGradLanesBlock<1>(g + f * n * lanes, dbias + f * lanes, n, lanes);
  }
}

// The weight-gradient pass sweeps tiles of whole output rows: at least
// kWgradTilePositions positions per sweep, so loading and storing a sweep's
// register block is amortized, while a tile's operands stay cache-resident
// even for the 26x26 planes of a 28x28 input.
constexpr size_t kWgradTilePositions = 64;
constexpr size_t kWgradRun = 3;  // taps of one kernel row per sweep
constexpr size_t kWgradLaneGroup = 4;  // lanes per sweep: one ymm of doubles

size_t ConvWgradTileRows(size_t oh, size_t ow) {
  const size_t rows = (kWgradTilePositions + ow - 1) / ow;
  return rows < oh ? rows : oh;
}

// Weight-gradient accumulation of one row tile (r rows) for the filter
// block f .. f + kFB - 1 against input channel c and the kRun taps (ky, kx0
// .. kx0 + kRun - 1), kWgradLaneGroup lanes at a time: the block's
// kFB * kRun accumulators of those lanes (from wacc, laid out [F, C, k, k,
// lanes]) are copied to a local block that stays in registers across the
// tile — 12 ymm at kFB = 4, kRun = 3 — with each input load shared by the
// kFB filters and each grad-output load by the kRun taps. g_tile holds the
// tile's rows of every grad-output plane ([F, r, ow, lanes]) and in_tile
// the r + k - 1 input rows under them ([C, r + k - 1, w, lanes]), both
// widened to double. Each tap chain advances in (y, x) order.
template <size_t kFB, size_t kRun, bool kFused>
DPAUDIT_LANE_INLINE void ConvWgradLanesSweep(
    const double* __restrict__ g_tile, const double* __restrict__ in_tile,
    double* __restrict__ wacc, size_t f, size_t c, size_t ky, size_t kx0,
    size_t C, size_t k, size_t w, size_t r, size_t ow, size_t lanes) {
  const size_t filter = C * k * k * lanes;
  for (size_t l0 = 0; l0 < lanes; l0 += kWgradLaneGroup) {
    const size_t nl =
        lanes - l0 < kWgradLaneGroup ? lanes - l0 : kWgradLaneGroup;
    double* a = wacc + ((f * C + c) * k * k + ky * k + kx0) * lanes + l0;
    double acc[kFB * kRun * kWgradLaneGroup];
    for (size_t j = 0; j < kFB; ++j) {
      for (size_t t = 0; t < kRun; ++t) {
        for (size_t l = 0; l < nl; ++l) {
          acc[(j * kRun + t) * kWgradLaneGroup + l] =
              a[j * filter + t * lanes + l];
        }
      }
    }
    for (size_t y = 0; y < r; ++y) {
      const double* in_row =
          in_tile + ((c * (r + k - 1) + y + ky) * w + kx0) * lanes + l0;
      const double* g_row = g_tile + ((f * r + y) * ow) * lanes + l0;
      for (size_t x = 0; x < ow; ++x) {
        const double* iv = in_row + x * lanes;
        for (size_t j = 0; j < kFB; ++j) {
          const double* gv = g_row + (j * r * ow + x) * lanes;
          for (size_t t = 0; t < kRun; ++t) {
            const double* ivx = iv + t * lanes;
            double* at = acc + (j * kRun + t) * kWgradLaneGroup;
            for (size_t l = 0; l < nl; ++l) {
              at[l] = AddExactProduct<kFused>(at[l], gv[l], ivx[l]);
            }
          }
        }
      }
    }
    for (size_t j = 0; j < kFB; ++j) {
      for (size_t t = 0; t < kRun; ++t) {
        for (size_t l = 0; l < nl; ++l) {
          a[j * filter + t * lanes + l] =
              acc[(j * kRun + t) * kWgradLaneGroup + l];
        }
      }
    }
  }
}

// Every tap of filter block f against channel c over one row tile, in
// sweeps of kWgradRun taps of a kernel row (single taps for the rest).
template <size_t kFB, bool kFused>
DPAUDIT_LANE_INLINE void ConvWgradLanesTileBlock(
    const double* __restrict__ g_tile, const double* __restrict__ in_tile,
    double* __restrict__ wacc, size_t f, size_t c, size_t C, size_t k,
    size_t w, size_t r, size_t ow, size_t lanes) {
  for (size_t ky = 0; ky < k; ++ky) {
    size_t kx = 0;
    for (; kx + kWgradRun <= k; kx += kWgradRun) {
      ConvWgradLanesSweep<kFB, kWgradRun, kFused>(g_tile, in_tile, wacc, f, c,
                                                  ky, kx, C, k, w, r, ow,
                                                  lanes);
    }
    for (; kx < k; ++kx) {
      ConvWgradLanesSweep<kFB, 1, kFused>(g_tile, in_tile, wacc, f, c, ky, kx,
                                          C, k, w, r, ow, lanes);
    }
  }
}

// Weight gradients, one tile of `rows` output rows at a time: the tile's
// grad-output rows and the input rows under them are widened to double
// (exact) into g_tile and in_tile, then every (channel, filter block)
// sweeps the tile. Each tap chain advances in (y, x) order across tiles.
template <bool kFused>
DPAUDIT_LANE_INLINE void ConvWgradLanesBody(
    const float* __restrict__ g, const float* __restrict__ in,
    float* __restrict__ dw, double* __restrict__ wacc,
    double* __restrict__ g_tile, double* __restrict__ in_tile, size_t C,
    size_t F, size_t k, size_t h, size_t w, size_t oh, size_t ow,
    size_t rows, size_t lanes) {
  const size_t blocked = F - F % kConvFBlock;
  for (size_t i = 0; i < F * C * k * k * lanes; ++i) wacc[i] = 0.0;
  for (size_t y0 = 0; y0 < oh; y0 += rows) {
    const size_t r = oh - y0 < rows ? oh - y0 : rows;
    for (size_t f = 0; f < F; ++f) {
      const float* src = g + (f * oh + y0) * ow * lanes;
      double* dst = g_tile + f * r * ow * lanes;
      for (size_t i = 0; i < r * ow * lanes; ++i) dst[i] = src[i];
    }
    for (size_t c = 0; c < C; ++c) {
      const float* src = in + (c * h + y0) * w * lanes;
      double* dst = in_tile + c * (r + k - 1) * w * lanes;
      for (size_t i = 0; i < (r + k - 1) * w * lanes; ++i) dst[i] = src[i];
    }
    for (size_t c = 0; c < C; ++c) {
      for (size_t f = 0; f < blocked; f += kConvFBlock) {
        ConvWgradLanesTileBlock<kConvFBlock, kFused>(
            g_tile, in_tile, wacc, f, c, C, k, w, r, ow, lanes);
      }
      for (size_t f = blocked; f < F; ++f) {
        ConvWgradLanesTileBlock<1, kFused>(g_tile, in_tile, wacc, f, c, C, k,
                                           w, r, ow, lanes);
      }
    }
  }
  for (size_t i = 0; i < F * C * k * k * lanes; ++i) {
    dw[i] = static_cast<float>(wacc[i]);
  }
}

// Input gradient of element (iy, ix) of the kCB input channels c0 .. c0 +
// kCB - 1 in gather form: the element's whole tap sum is held in a local
// lane accumulator per channel (one store each), taps applied in (f, ky, kx)
// ascending order over the taps that reach it — the scatter reference's
// traversal with c fixed — and each grad-output load is shared by the
// block's channels.
template <size_t kCB>
DPAUDIT_LANE_INLINE void ConvGradInputLanesElement(
    const float* __restrict__ g, const float* __restrict__ weights,
    float* __restrict__ gi, size_t c0, size_t C, size_t F, size_t k,
    size_t h, size_t w, size_t oh, size_t ow, size_t iy, size_t ix,
    size_t ky_lo, size_t ky_hi, size_t kx_lo, size_t kx_hi, size_t lanes) {
  const size_t kk = k * k;
  float acc[kCB * kMaxBatchLanes];
  for (size_t e = 0; e < kCB * lanes; ++e) acc[e] = 0.0f;
  for (size_t f = 0; f < F; ++f) {
    const float* g_base = g + f * oh * ow * lanes;
    const float* kp = weights + (f * C + c0) * kk;
    for (size_t ky = ky_lo; ky <= ky_hi; ++ky) {
      const float* g_row = g_base + (iy - ky) * ow * lanes;
      for (size_t kx = kx_lo; kx <= kx_hi; ++kx) {
        const float* gvx = g_row + (ix - kx) * lanes;
        float kv[kCB];
        for (size_t j = 0; j < kCB; ++j) kv[j] = kp[j * kk + ky * k + kx];
        for (size_t j = 0; j < kCB; ++j) {
          for (size_t l = 0; l < lanes; ++l) {
            acc[j * lanes + l] += kv[j] * gvx[l];
          }
        }
      }
    }
  }
  for (size_t j = 0; j < kCB; ++j) {
    float* giv = gi + (((c0 + j) * h + iy) * w + ix) * lanes;
    for (size_t l = 0; l < lanes; ++l) giv[l] = acc[j * lanes + l];
  }
}

// Every element of channels c0 .. c0 + kCB - 1. Interior columns, reached
// by every kx tap, take a call with the full tap range so a pinned kernel
// size unrolls it; the edge columns pass their partial ranges.
template <size_t kCB>
DPAUDIT_LANE_INLINE void ConvGradInputLanesBlock(
    const float* __restrict__ g, const float* __restrict__ weights,
    float* __restrict__ gi, size_t c0, size_t C, size_t F, size_t k,
    size_t h, size_t w, size_t oh, size_t ow, size_t lanes) {
  for (size_t iy = 0; iy < h; ++iy) {
    const size_t ky_lo = iy >= oh ? iy - (oh - 1) : 0;
    const size_t ky_hi = iy < k - 1 ? iy : k - 1;
    for (size_t ix = 0; ix < w; ++ix) {
      if (ix >= k - 1 && ix < ow) {
        ConvGradInputLanesElement<kCB>(g, weights, gi, c0, C, F, k, h, w, oh,
                                       ow, iy, ix, ky_lo, ky_hi, 0, k - 1,
                                       lanes);
      } else {
        const size_t kx_lo = ix >= ow ? ix - (ow - 1) : 0;
        const size_t kx_hi = ix < k - 1 ? ix : k - 1;
        ConvGradInputLanesElement<kCB>(g, weights, gi, c0, C, F, k, h, w, oh,
                                       ow, iy, ix, ky_lo, ky_hi, kx_lo, kx_hi,
                                       lanes);
      }
    }
  }
}

DPAUDIT_LANE_INLINE void ConvGradInputLanesBody(
    const float* __restrict__ g, const float* __restrict__ weights,
    float* __restrict__ gi, size_t C, size_t F, size_t k, size_t h, size_t w,
    size_t oh, size_t ow, size_t lanes) {
  size_t c = 0;
  for (; c + kConvCBlock <= C; c += kConvCBlock) {
    ConvGradInputLanesBlock<kConvCBlock>(g, weights, gi, c, C, F, k, h, w, oh,
                                         ow, lanes);
  }
  for (; c < C; ++c) {
    ConvGradInputLanesBlock<1>(g, weights, gi, c, C, F, k, h, w, oh, ow,
                               lanes);
  }
}

#if defined(DPAUDIT_X86_DISPATCH)
__attribute__((target("avx2"))) void ConvForwardLanes8K3Avx2(
    const float* in, const float* weights, const float* bias, float* out,
    size_t C, size_t F, size_t h, size_t w, size_t oh, size_t ow) {
  ConvForwardLanesBody(in, weights, bias, out, C, F, 3, h, w, oh, ow, 8);
}

__attribute__((target("avx2"))) void ConvBiasGradLanes8Avx2(const float* g,
                                                            float* dbias,
                                                            size_t F,
                                                            size_t n) {
  ConvBiasGradLanesBody(g, dbias, F, n, 8);
}

__attribute__((target("avx2,fma"))) void ConvWgradLanes8K3Avx2Fma(
    const float* g, const float* in, float* dw, double* wacc, double* g_tile,
    double* in_tile, size_t C, size_t F, size_t h, size_t w, size_t oh,
    size_t ow, size_t rows) {
  ConvWgradLanesBody<true>(g, in, dw, wacc, g_tile, in_tile, C, F, 3, h, w,
                           oh, ow, rows, 8);
}

__attribute__((target("avx2"))) void ConvGradInputLanes8K3Avx2(
    const float* g, const float* weights, float* gi, size_t C, size_t F,
    size_t h, size_t w, size_t oh, size_t ow) {
  ConvGradInputLanesBody(g, weights, gi, C, F, 3, h, w, oh, ow, 8);
}
#endif  // DPAUDIT_X86_DISPATCH

}  // namespace

Conv2d::Conv2d(size_t in_channels, size_t out_channels, size_t kernel)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}) {
  DPAUDIT_CHECK_GT(kernel_, 0u);
}

void Conv2d::Initialize(Rng& rng) {
  double fan_in = static_cast<double>(in_channels_ * kernel_ * kernel_);
  double fan_out = static_cast<double>(out_channels_ * kernel_ * kernel_);
  double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (float& w : weight_.vec()) {
    w = static_cast<float>(rng.Uniform(-limit, limit));
  }
  bias_.Fill(0.0f);
}

void Conv2d::ForwardBatchInto(const Tensor& input, size_t lanes,
                              Tensor* output) {
  DPAUDIT_CHECK_GT(lanes, 0u);
  DPAUDIT_CHECK_LE(lanes, kMaxBatchLanes);
  DPAUDIT_CHECK_EQ(input.rank(), 4u);  // [C, H, W, lanes]
  DPAUDIT_CHECK_EQ(input.dim(0), in_channels_);
  DPAUDIT_CHECK_EQ(input.dim(3), lanes);
  const size_t h = input.dim(1);
  const size_t w = input.dim(2);
  DPAUDIT_CHECK_GE(h, kernel_);
  DPAUDIT_CHECK_GE(w, kernel_);
  const size_t oh = h - kernel_ + 1;
  const size_t ow = w - kernel_ + 1;
  last_batch_input_ = &input;
  batch_lanes_ = lanes;
  output->ResizeTo({out_channels_, oh, ow, lanes});
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && kernel_ == 3 && HasAvx2()) {
    ConvForwardLanes8K3Avx2(input.data(), weight_.data(), bias_.data(),
                            output->data(), in_channels_, out_channels_, h, w,
                            oh, ow);
    return;
  }
#endif
  ConvForwardLanesBody(input.data(), weight_.data(), bias_.data(),
                       output->data(), in_channels_, out_channels_, kernel_, h,
                       w, oh, ow, lanes);
}

void Conv2d::BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                               Tensor* grad_input) {
  DPAUDIT_CHECK(last_batch_input_ != nullptr) << "Backward before Forward";
  DPAUDIT_CHECK_EQ(lanes, batch_lanes_);
  DPAUDIT_CHECK_EQ(grad_output.rank(), 4u);
  DPAUDIT_CHECK_EQ(grad_output.dim(0), out_channels_);
  DPAUDIT_CHECK_EQ(grad_output.dim(3), lanes);
  const size_t h = last_batch_input_->dim(1);
  const size_t w = last_batch_input_->dim(2);
  const size_t oh = grad_output.dim(1);
  const size_t ow = grad_output.dim(2);
  DPAUDIT_CHECK_EQ(oh, h - kernel_ + 1);
  DPAUDIT_CHECK_EQ(ow, w - kernel_ + 1);
  const size_t kk = kernel_ * kernel_;
  lane_dweight_.resize(out_channels_ * in_channels_ * kk * lanes);
  lane_dbias_.resize(out_channels_ * lanes);
  lane_wacc_.resize(out_channels_ * in_channels_ * kk * lanes);
  const size_t rows = ConvWgradTileRows(oh, ow);
  g_pd_.resize(out_channels_ * rows * ow * lanes);
  in_pd_.resize(in_channels_ * (rows + kernel_ - 1) * w * lanes);
  const float* g = grad_output.data();
  const float* in = last_batch_input_->data();
  float* gi = nullptr;
  if (grad_input != nullptr) {
    grad_input->ResizeTo(last_batch_input_->shape());
    gi = grad_input->data();
  }
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && kernel_ == 3 && HasAvx2Fma()) {
    ConvBiasGradLanes8Avx2(g, lane_dbias_.data(), out_channels_, oh * ow);
    ConvWgradLanes8K3Avx2Fma(g, in, lane_dweight_.data(), lane_wacc_.data(),
                             g_pd_.data(), in_pd_.data(), in_channels_,
                             out_channels_, h, w, oh, ow, rows);
    if (gi != nullptr) {
      ConvGradInputLanes8K3Avx2(g, weight_.data(), gi, in_channels_,
                                out_channels_, h, w, oh, ow);
    }
    return;
  }
#endif
  ConvBiasGradLanesBody(g, lane_dbias_.data(), out_channels_, oh * ow, lanes);
  ConvWgradLanesBody<false>(g, in, lane_dweight_.data(), lane_wacc_.data(),
                            g_pd_.data(), in_pd_.data(), in_channels_,
                            out_channels_, kernel_, h, w, oh, ow, rows, lanes);
  if (gi != nullptr) {
    ConvGradInputLanesBody(g, weight_.data(), gi, in_channels_, out_channels_,
                           kernel_, h, w, oh, ow, lanes);
  }
}

void Conv2d::AppendLaneGrads(std::vector<LaneGradBlock>* blocks) const {
  blocks->push_back(LaneGradBlock::Stored(lane_dweight_.data(),
                                          weight_.size()));
  blocks->push_back(LaneGradBlock::Stored(lane_dbias_.data(), bias_.size()));
}

std::unique_ptr<Layer> Conv2d::Clone() const {
  auto copy = std::make_unique<Conv2d>(in_channels_, out_channels_, kernel_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

std::string Conv2d::Name() const {
  std::ostringstream os;
  os << "conv2d(" << in_channels_ << "->" << out_channels_ << ", k=" << kernel_
     << ")";
  return os.str();
}

}  // namespace dpaudit
