#include "nn/conv2d.h"

#include <cmath>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tensor/tensor.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/simd.h"

namespace dpaudit {

namespace {

#if defined(DPAUDIT_X86_DISPATCH)

// AVX2 variants of the 3x3 kernels, dispatched at runtime. They use explicit
// mul-then-add intrinsics (never contracted to FMA) and map vector lanes to
// accumulators that are independent in the scalar code, so every accumulator
// sees the same additions in the same order and results are bit-identical to
// the portable path.

// Full forward plane set for a 3x3 kernel. Per output element the additions
// are bias first, then input channels ascending with their taps in (ky, kx)
// order — the same chain as the scalar path; hoisting the nine broadcast
// weights out of the row loop only changes how often they are loaded.
__attribute__((target("avx2"))) void ForwardK3Avx2(
    const float* in, const float* weights, const float* bias, float* out,
    size_t C, size_t F, size_t h, size_t w, size_t oh, size_t ow) {
  for (size_t f = 0; f < F; ++f) {
    float* out_plane = out + f * oh * ow;
    const float bf = bias[f];
    for (size_t i = 0; i < oh * ow; ++i) out_plane[i] = bf;
    for (size_t c = 0; c < C; ++c) {
      const float* in_plane = in + c * h * w;
      const float* kp = weights + (f * C + c) * 9;
      const __m256 k00 = _mm256_set1_ps(kp[0]), k01 = _mm256_set1_ps(kp[1]),
                   k02 = _mm256_set1_ps(kp[2]), k10 = _mm256_set1_ps(kp[3]),
                   k11 = _mm256_set1_ps(kp[4]), k12 = _mm256_set1_ps(kp[5]),
                   k20 = _mm256_set1_ps(kp[6]), k21 = _mm256_set1_ps(kp[7]),
                   k22 = _mm256_set1_ps(kp[8]);
      for (size_t y = 0; y < oh; ++y) {
        const float* r0 = in_plane + y * w;
        const float* r1 = r0 + w;
        const float* r2 = r1 + w;
        float* out_row = out_plane + y * ow;
        size_t x = 0;
        for (; x + 8 <= ow; x += 8) {
          __m256 acc = _mm256_loadu_ps(out_row + x);
          acc = _mm256_add_ps(acc, _mm256_mul_ps(k00, _mm256_loadu_ps(r0 + x)));
          acc = _mm256_add_ps(acc,
                              _mm256_mul_ps(k01, _mm256_loadu_ps(r0 + x + 1)));
          acc = _mm256_add_ps(acc,
                              _mm256_mul_ps(k02, _mm256_loadu_ps(r0 + x + 2)));
          acc = _mm256_add_ps(acc, _mm256_mul_ps(k10, _mm256_loadu_ps(r1 + x)));
          acc = _mm256_add_ps(acc,
                              _mm256_mul_ps(k11, _mm256_loadu_ps(r1 + x + 1)));
          acc = _mm256_add_ps(acc,
                              _mm256_mul_ps(k12, _mm256_loadu_ps(r1 + x + 2)));
          acc = _mm256_add_ps(acc, _mm256_mul_ps(k20, _mm256_loadu_ps(r2 + x)));
          acc = _mm256_add_ps(acc,
                              _mm256_mul_ps(k21, _mm256_loadu_ps(r2 + x + 1)));
          acc = _mm256_add_ps(acc,
                              _mm256_mul_ps(k22, _mm256_loadu_ps(r2 + x + 2)));
          _mm256_storeu_ps(out_row + x, acc);
        }
        for (; x < ow; ++x) {
          float acc = out_row[x];
          acc += kp[0] * r0[x];
          acc += kp[1] * r0[x + 1];
          acc += kp[2] * r0[x + 2];
          acc += kp[3] * r1[x];
          acc += kp[4] * r1[x + 1];
          acc += kp[5] * r1[x + 2];
          acc += kp[6] * r2[x];
          acc += kp[7] * r2[x + 1];
          acc += kp[8] * r2[x + 2];
          out_row[x] = acc;
        }
      }
    }
  }
}

// Widens a float buffer to double (exact, order-preserving). The weight
// gradient kernels below read the widened planes so their inner loops carry
// no float->double converts.
__attribute__((target("avx2"))) void WidenToDoubleAvx2(const float* src,
                                                       double* dst, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_cvtps_pd(_mm_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = static_cast<double>(src[i]);
}

// Weight gradients of one (filter, channel) pair from pre-widened planes.
// Lanes 0..2 of each vector hold the three taps of one kernel row; lane 3
// accumulates whatever lies one past the tap window (in-plane data or the
// caller's zero padding) and is discarded, which lets the x loop run the full
// row without an epilogue. Each lane's chain advances in (y, x) order like
// the scalar code.
__attribute__((target("avx2"))) void WgradK3Avx2(const double* g_plane,
                                                 const double* in_plane,
                                                 size_t oh, size_t ow,
                                                 size_t w, float* dw9) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  for (size_t y = 0; y < oh; ++y) {
    const double* g_row = g_plane + y * ow;
    const double* r0 = in_plane + y * w;
    const double* r1 = r0 + w;
    const double* r2 = r1 + w;
    for (size_t x = 0; x < ow; ++x) {
      const __m256d gv = _mm256_broadcast_sd(g_row + x);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(gv, _mm256_loadu_pd(r0 + x)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(gv, _mm256_loadu_pd(r1 + x)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(gv, _mm256_loadu_pd(r2 + x)));
    }
  }
  double l0[4], l1[4], l2[4];
  _mm256_storeu_pd(l0, a0);
  _mm256_storeu_pd(l1, a1);
  _mm256_storeu_pd(l2, a2);
  dw9[0] += static_cast<float>(l0[0]);
  dw9[1] += static_cast<float>(l0[1]);
  dw9[2] += static_cast<float>(l0[2]);
  dw9[3] += static_cast<float>(l1[0]);
  dw9[4] += static_cast<float>(l1[1]);
  dw9[5] += static_cast<float>(l1[2]);
  dw9[6] += static_cast<float>(l2[0]);
  dw9[7] += static_cast<float>(l2[1]);
  dw9[8] += static_cast<float>(l2[2]);
}

// Two filters against one input channel per sweep. The 3x3 sums are
// latency-bound on their serial add chains, so interleaving the six
// independent chains of two filters nearly doubles throughput while sharing
// the input loads; each individual chain is unchanged.
__attribute__((target("avx2"))) void WgradK3x2Avx2(
    const double* g_a, const double* g_b, const double* in_plane, size_t oh,
    size_t ow, size_t w, float* dw_a, float* dw_b) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d b0 = _mm256_setzero_pd();
  __m256d b1 = _mm256_setzero_pd();
  __m256d b2 = _mm256_setzero_pd();
  for (size_t y = 0; y < oh; ++y) {
    const double* ga = g_a + y * ow;
    const double* gb = g_b + y * ow;
    const double* r0 = in_plane + y * w;
    const double* r1 = r0 + w;
    const double* r2 = r1 + w;
    for (size_t x = 0; x < ow; ++x) {
      const __m256d ga_v = _mm256_broadcast_sd(ga + x);
      const __m256d gb_v = _mm256_broadcast_sd(gb + x);
      const __m256d v0 = _mm256_loadu_pd(r0 + x);
      const __m256d v1 = _mm256_loadu_pd(r1 + x);
      const __m256d v2 = _mm256_loadu_pd(r2 + x);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(ga_v, v0));
      b0 = _mm256_add_pd(b0, _mm256_mul_pd(gb_v, v0));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(ga_v, v1));
      b1 = _mm256_add_pd(b1, _mm256_mul_pd(gb_v, v1));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(ga_v, v2));
      b2 = _mm256_add_pd(b2, _mm256_mul_pd(gb_v, v2));
    }
  }
  double l[4];
  _mm256_storeu_pd(l, a0);
  dw_a[0] += static_cast<float>(l[0]);
  dw_a[1] += static_cast<float>(l[1]);
  dw_a[2] += static_cast<float>(l[2]);
  _mm256_storeu_pd(l, a1);
  dw_a[3] += static_cast<float>(l[0]);
  dw_a[4] += static_cast<float>(l[1]);
  dw_a[5] += static_cast<float>(l[2]);
  _mm256_storeu_pd(l, a2);
  dw_a[6] += static_cast<float>(l[0]);
  dw_a[7] += static_cast<float>(l[1]);
  dw_a[8] += static_cast<float>(l[2]);
  _mm256_storeu_pd(l, b0);
  dw_b[0] += static_cast<float>(l[0]);
  dw_b[1] += static_cast<float>(l[1]);
  dw_b[2] += static_cast<float>(l[2]);
  _mm256_storeu_pd(l, b1);
  dw_b[3] += static_cast<float>(l[0]);
  dw_b[4] += static_cast<float>(l[1]);
  dw_b[5] += static_cast<float>(l[2]);
  _mm256_storeu_pd(l, b2);
  dw_b[6] += static_cast<float>(l[0]);
  dw_b[7] += static_cast<float>(l[1]);
  dw_b[8] += static_cast<float>(l[2]);
}

// Full grad-input gather for a 3x3 kernel (requires ow >= 3). Per element
// the taps apply in (f, ky, kx) ascending order — the scatter reference's
// traversal with c fixed — with all kx taps of a row fused into one pass.
__attribute__((target("avx2"))) void GradInputK3Avx2(
    const float* g, const float* weights, float* gi, size_t C, size_t F,
    size_t h, size_t w, size_t oh, size_t ow) {
  for (size_t c = 0; c < C; ++c) {
    float* gi_plane = gi + c * h * w;
    for (size_t iy = 0; iy < h; ++iy) {
      float* gi_row = gi_plane + iy * w;
      const size_t ky_lo = iy >= oh ? iy - (oh - 1) : 0;
      const size_t ky_hi = iy < 2 ? iy : 2;
      for (size_t f = 0; f < F; ++f) {
        const float* g_base = g + f * oh * ow;
        const float* kp = weights + (f * C + c) * 9;
        for (size_t ky = ky_lo; ky <= ky_hi; ++ky) {
          const float* g_row = g_base + (iy - ky) * ow;
          const float k0 = kp[ky * 3];
          const float k1 = kp[ky * 3 + 1];
          const float k2 = kp[ky * 3 + 2];
          // Left edge: ix = 0 sees only kx = 0, ix = 1 sees kx = 0, 1.
          gi_row[0] += k0 * g_row[0];
          gi_row[1] += k0 * g_row[1];
          gi_row[1] += k1 * g_row[0];
          const __m256 v0 = _mm256_set1_ps(k0);
          const __m256 v1 = _mm256_set1_ps(k1);
          const __m256 v2 = _mm256_set1_ps(k2);
          size_t ix = 2;
          for (; ix + 8 <= ow; ix += 8) {
            __m256 acc = _mm256_loadu_ps(gi_row + ix);
            acc =
                _mm256_add_ps(acc, _mm256_mul_ps(v0, _mm256_loadu_ps(g_row + ix)));
            acc = _mm256_add_ps(
                acc, _mm256_mul_ps(v1, _mm256_loadu_ps(g_row + ix - 1)));
            acc = _mm256_add_ps(
                acc, _mm256_mul_ps(v2, _mm256_loadu_ps(g_row + ix - 2)));
            _mm256_storeu_ps(gi_row + ix, acc);
          }
          for (; ix < ow; ++ix) {
            float acc = gi_row[ix];
            acc += k0 * g_row[ix];
            acc += k1 * g_row[ix - 1];
            acc += k2 * g_row[ix - 2];
            gi_row[ix] = acc;
          }
          // Right edge: ix = ow sees kx = 1, 2 and ix = ow + 1 only kx = 2.
          gi_row[ow] += k1 * g_row[ow - 1];
          gi_row[ow] += k2 * g_row[ow - 2];
          gi_row[ow + 1] += k2 * g_row[ow - 1];
        }
      }
    }
  }
}

#endif  // DPAUDIT_X86_DISPATCH

// ---- Batched lane kernels --------------------------------------------------
//
// Bodies shared between the portable path (runtime `lanes`, runtime kernel
// size) and the AVX2 wrappers (lanes pinned to 8, kernel pinned to 3 so the
// tap loops fully unroll and each lane accumulator lives in one or two ymm
// registers). Lanes are independent examples; per lane the addition chains
// are exactly the scalar ones — forward: bias first, then input channels
// ascending with taps in (ky, kx) order; weight grad: one double accumulator
// per (tap, lane) advanced in (y, x) order; grad input: per element taps in
// (f, ky, kx) ascending order; bias grad: plane in index order — so per-lane
// results are bit-identical.
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
      bias_({out_channels}),
      dweight_({out_channels, in_channels, kernel, kernel}),
      dbias_({out_channels}) {
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

// Both passes are restructured for throughput but keep every accumulator's
// addition sequence identical to a tap-at-a-time reference implementation:
// each output (resp. weight-gradient) element receives the same additions in
// the same order, each individually rounded, so results are bit-identical.

void Conv2d::ForwardInto(const Tensor& input, Tensor* output) {
  DPAUDIT_CHECK_EQ(input.rank(), 3u);
  DPAUDIT_CHECK_EQ(input.dim(0), in_channels_);
  const size_t h = input.dim(1);
  const size_t w = input.dim(2);
  DPAUDIT_CHECK_GE(h, kernel_);
  DPAUDIT_CHECK_GE(w, kernel_);
  const size_t oh = h - kernel_ + 1;
  const size_t ow = w - kernel_ + 1;
  last_input_ = &input;
  output->ResizeTo({out_channels_, oh, ow});
  const float* in = input.data();
  const float* weights = weight_.data();
  float* o = output->data();
#if defined(DPAUDIT_X86_DISPATCH)
  if (kernel_ == 3 && HasAvx2()) {
    ForwardK3Avx2(in, weights, bias_.data(), o, in_channels_, out_channels_, h,
                  w, oh, ow);
    return;
  }
#endif
  if (kernel_ == 3) {
    // All 9 taps of each input channel fused per output element: one load
    // and one store of the output per channel instead of nine, and the x
    // loop vectorizes (independent accumulation chains across x).
    for (size_t f = 0; f < out_channels_; ++f) {
      float* out_plane = o + f * oh * ow;
      const float bias = bias_[f];
      for (size_t i = 0; i < oh * ow; ++i) out_plane[i] = bias;
      for (size_t c = 0; c < in_channels_; ++c) {
        const float* in_plane = in + c * h * w;
        const float* kp = weights + (f * in_channels_ + c) * 9;
        const float k00 = kp[0], k01 = kp[1], k02 = kp[2];
        const float k10 = kp[3], k11 = kp[4], k12 = kp[5];
        const float k20 = kp[6], k21 = kp[7], k22 = kp[8];
        for (size_t y = 0; y < oh; ++y) {
          const float* r0 = in_plane + y * w;
          const float* r1 = r0 + w;
          const float* r2 = r1 + w;
          float* out_row = out_plane + y * ow;
          for (size_t x = 0; x < ow; ++x) {
            float acc = out_row[x];
            acc += k00 * r0[x];
            acc += k01 * r0[x + 1];
            acc += k02 * r0[x + 2];
            acc += k10 * r1[x];
            acc += k11 * r1[x + 1];
            acc += k12 * r1[x + 2];
            acc += k20 * r2[x];
            acc += k21 * r2[x + 1];
            acc += k22 * r2[x + 2];
            out_row[x] = acc;
          }
        }
      }
    }
  } else {
    for (size_t f = 0; f < out_channels_; ++f) {
      float* out_plane = o + f * oh * ow;
      const float bias = bias_[f];
      for (size_t y = 0; y < oh; ++y) {
        float* out_row = out_plane + y * ow;
        for (size_t x = 0; x < ow; ++x) out_row[x] = bias;
        for (size_t c = 0; c < in_channels_; ++c) {
          const float* in_plane = in + c * h * w;
          const float* kp = weights + (f * in_channels_ + c) * kernel_ * kernel_;
          for (size_t x = 0; x < ow; ++x) {
            float acc = out_row[x];
            for (size_t ky = 0; ky < kernel_; ++ky) {
              const float* in_row = in_plane + (y + ky) * w + x;
              const float* krow = kp + ky * kernel_;
              for (size_t kx = 0; kx < kernel_; ++kx) {
                acc += krow[kx] * in_row[kx];
              }
            }
            out_row[x] = acc;
          }
        }
      }
    }
  }
}

void Conv2d::BackwardInto(const Tensor& grad_output, Tensor* grad_input) {
  DPAUDIT_CHECK_EQ(grad_output.rank(), 3u);
  DPAUDIT_CHECK_EQ(grad_output.dim(0), out_channels_);
  DPAUDIT_CHECK(last_input_ != nullptr) << "Backward before Forward";
  const size_t h = last_input_->dim(1);
  const size_t w = last_input_->dim(2);
  const size_t oh = grad_output.dim(1);
  const size_t ow = grad_output.dim(2);
  DPAUDIT_CHECK_EQ(oh, h - kernel_ + 1);
  DPAUDIT_CHECK_EQ(ow, w - kernel_ + 1);
  grad_input->ResizeTo(last_input_->shape());
  grad_input->Fill(0.0f);
  const float* in = last_input_->data();
  const float* g = grad_output.data();
  const float* weights = weight_.data();
  float* dw = dweight_.data();
  float* gi = grad_input->data();
  const size_t kk = kernel_ * kernel_;
#if defined(DPAUDIT_X86_DISPATCH)
  const bool use_avx2 = HasAvx2();
#else
  const bool use_avx2 = false;
#endif

  // Bias gradients: one chain per filter, blocked four filters at a time so
  // the independent chains pipeline in registers instead of serializing on
  // memory round-trips; each chain still adds its plane in index order.
  {
    const size_t n = oh * ow;
    size_t f = 0;
    for (; f + 4 <= out_channels_; f += 4) {
      const float* p0 = g + f * n;
      const float* p1 = p0 + n;
      const float* p2 = p1 + n;
      const float* p3 = p2 + n;
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (size_t i = 0; i < n; ++i) {
        a0 += p0[i];
        a1 += p1[i];
        a2 += p2[i];
        a3 += p3[i];
      }
      dbias_[f] += static_cast<float>(a0);
      dbias_[f + 1] += static_cast<float>(a1);
      dbias_[f + 2] += static_cast<float>(a2);
      dbias_[f + 3] += static_cast<float>(a3);
    }
    for (; f < out_channels_; ++f) {
      const float* p = g + f * n;
      double acc = 0.0;
      for (size_t i = 0; i < n; ++i) acc += p[i];
      dbias_[f] += static_cast<float>(acc);
    }
  }

  // Weight gradients: for each (filter, channel) pair, sweep the output
  // plane once with k*k independent accumulators (one per kernel tap)
  // instead of k*k latency-bound sweeps with one accumulator each.
  if (kernel_ == 3 && use_avx2) {
#if defined(DPAUDIT_X86_DISPATCH)
    // Widen both operand sets to double once; the kernels then run
    // convert-free. The input buffer carries four zero doubles of padding so
    // the 4-wide loads at the last column stay in bounds (their fourth lane
    // is discarded either way).
    in_pd_.resize(in_channels_ * h * w + 4);
    g_pd_.resize(out_channels_ * oh * ow);
    WidenToDoubleAvx2(in, in_pd_.data(), in_channels_ * h * w);
    for (size_t i = 0; i < 4; ++i) in_pd_[in_channels_ * h * w + i] = 0.0;
    WidenToDoubleAvx2(g, g_pd_.data(), out_channels_ * oh * ow);
    size_t f = 0;
    for (; f + 1 < out_channels_; f += 2) {
      for (size_t c = 0; c < in_channels_; ++c) {
        WgradK3x2Avx2(g_pd_.data() + f * oh * ow,
                      g_pd_.data() + (f + 1) * oh * ow, in_pd_.data() + c * h * w,
                      oh, ow, w, dw + (f * in_channels_ + c) * 9,
                      dw + ((f + 1) * in_channels_ + c) * 9);
      }
    }
    if (f < out_channels_) {
      for (size_t c = 0; c < in_channels_; ++c) {
        WgradK3Avx2(g_pd_.data() + f * oh * ow, in_pd_.data() + c * h * w, oh,
                    ow, w, dw + (f * in_channels_ + c) * 9);
      }
    }
#endif
  } else {
    for (size_t f = 0; f < out_channels_; ++f) {
      const float* g_plane = g + f * oh * ow;
      for (size_t c = 0; c < in_channels_; ++c) {
        const float* in_plane = in + c * h * w;
        const size_t kernel_base = (f * in_channels_ + c) * kk;
        if (kernel_ == 3) {
#if defined(__SSE2__)
          // Tap pairs (w00,w01), (w10,w11), (w20,w21) live in SSE registers;
          // each vector lane is one tap's accumulator chain, advanced in the
          // same (y, x) order as the scalar code, so the sums are bit-equal.
          __m128d p0 = _mm_setzero_pd();
          __m128d p1 = _mm_setzero_pd();
          __m128d p2 = _mm_setzero_pd();
          double w02 = 0.0, w12 = 0.0, w22 = 0.0;
          for (size_t y = 0; y < oh; ++y) {
            const float* g_row = g_plane + y * ow;
            const float* r0 = in_plane + y * w;
            const float* r1 = r0 + w;
            const float* r2 = r1 + w;
            for (size_t x = 0; x < ow; ++x) {
              const double go = g_row[x];
              const __m128d gv = _mm_set1_pd(go);
              p0 = _mm_add_pd(
                  p0, _mm_mul_pd(gv, _mm_cvtps_pd(_mm_castsi128_ps(
                                         _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0 + x))))));
              p1 = _mm_add_pd(
                  p1, _mm_mul_pd(gv, _mm_cvtps_pd(_mm_castsi128_ps(
                                         _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r1 + x))))));
              p2 = _mm_add_pd(
                  p2, _mm_mul_pd(gv, _mm_cvtps_pd(_mm_castsi128_ps(
                                         _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r2 + x))))));
              w02 += go * r0[x + 2];
              w12 += go * r1[x + 2];
              w22 += go * r2[x + 2];
            }
          }
          double pr[6];
          _mm_storeu_pd(pr + 0, p0);
          _mm_storeu_pd(pr + 2, p1);
          _mm_storeu_pd(pr + 4, p2);
          dw[kernel_base + 0] += static_cast<float>(pr[0]);
          dw[kernel_base + 1] += static_cast<float>(pr[1]);
          dw[kernel_base + 2] += static_cast<float>(w02);
          dw[kernel_base + 3] += static_cast<float>(pr[2]);
          dw[kernel_base + 4] += static_cast<float>(pr[3]);
          dw[kernel_base + 5] += static_cast<float>(w12);
          dw[kernel_base + 6] += static_cast<float>(pr[4]);
          dw[kernel_base + 7] += static_cast<float>(pr[5]);
          dw[kernel_base + 8] += static_cast<float>(w22);
#else
          double w00 = 0.0, w01 = 0.0, w02 = 0.0;
          double w10 = 0.0, w11 = 0.0, w12 = 0.0;
          double w20 = 0.0, w21 = 0.0, w22 = 0.0;
          for (size_t y = 0; y < oh; ++y) {
            const float* g_row = g_plane + y * ow;
            const float* r0 = in_plane + y * w;
            const float* r1 = r0 + w;
            const float* r2 = r1 + w;
            for (size_t x = 0; x < ow; ++x) {
              const double go = g_row[x];
              w00 += go * r0[x];
              w01 += go * r0[x + 1];
              w02 += go * r0[x + 2];
              w10 += go * r1[x];
              w11 += go * r1[x + 1];
              w12 += go * r1[x + 2];
              w20 += go * r2[x];
              w21 += go * r2[x + 1];
              w22 += go * r2[x + 2];
            }
          }
          dw[kernel_base + 0] += static_cast<float>(w00);
          dw[kernel_base + 1] += static_cast<float>(w01);
          dw[kernel_base + 2] += static_cast<float>(w02);
          dw[kernel_base + 3] += static_cast<float>(w10);
          dw[kernel_base + 4] += static_cast<float>(w11);
          dw[kernel_base + 5] += static_cast<float>(w12);
          dw[kernel_base + 6] += static_cast<float>(w20);
          dw[kernel_base + 7] += static_cast<float>(w21);
          dw[kernel_base + 8] += static_cast<float>(w22);
#endif
        } else {
          wacc_.assign(kk, 0.0);
          for (size_t y = 0; y < oh; ++y) {
            const float* g_row = g_plane + y * ow;
            for (size_t x = 0; x < ow; ++x) {
              const double go = g_row[x];
              for (size_t ky = 0; ky < kernel_; ++ky) {
                const float* in_row = in_plane + (y + ky) * w + x;
                for (size_t kx = 0; kx < kernel_; ++kx) {
                  wacc_[ky * kernel_ + kx] += go * in_row[kx];
                }
              }
            }
          }
          for (size_t t = 0; t < kk; ++t) {
            dw[kernel_base + t] += static_cast<float>(wacc_[t]);
          }
        }
      }
    }
  }

  // Input gradients. The reference order of additions into element
  // gi[c][iy][ix] is the (f, c, ky, kx) scatter traversal; since c is fixed
  // per element, that is "f ascending, then ky, then kx". The gather form
  // below visits taps in exactly that order per element while fusing all kx
  // taps of a row into one x pass (three shifted reads of g instead of three
  // read-modify-write sweeps of gi), which vectorizes.
  if (kernel_ == 3 && ow >= 3 && use_avx2) {
#if defined(DPAUDIT_X86_DISPATCH)
    GradInputK3Avx2(g, weights, gi, in_channels_, out_channels_, h, w, oh, ow);
#endif
  } else if (kernel_ == 3 && ow >= 3) {
    for (size_t c = 0; c < in_channels_; ++c) {
      float* gi_plane = gi + c * h * w;
      for (size_t iy = 0; iy < h; ++iy) {
        float* gi_row = gi_plane + iy * w;
        for (size_t f = 0; f < out_channels_; ++f) {
          const float* g_base = g + f * oh * ow;
          const float* kp = weights + (f * in_channels_ + c) * 9;
          const size_t ky_lo = iy >= oh ? iy - (oh - 1) : 0;
          const size_t ky_hi = iy < 2 ? iy : 2;
          for (size_t ky = ky_lo; ky <= ky_hi; ++ky) {
            const float* g_row = g_base + (iy - ky) * ow;
            const float k0 = kp[ky * 3];
            const float k1 = kp[ky * 3 + 1];
            const float k2 = kp[ky * 3 + 2];
            // Left edge: ix = 0 sees only kx = 0, ix = 1 sees kx = 0, 1.
            gi_row[0] += k0 * g_row[0];
            gi_row[1] += k0 * g_row[1];
            gi_row[1] += k1 * g_row[0];
            for (size_t ix = 2; ix < ow; ++ix) {
              float acc = gi_row[ix];
              acc += k0 * g_row[ix];
              acc += k1 * g_row[ix - 1];
              acc += k2 * g_row[ix - 2];
              gi_row[ix] = acc;
            }
            // Right edge: ix = ow sees kx = 1, 2 and ix = ow + 1 only kx = 2.
            gi_row[ow] += k1 * g_row[ow - 1];
            gi_row[ow] += k2 * g_row[ow - 2];
            gi_row[ow + 1] += k2 * g_row[ow - 1];
          }
        }
      }
    }
  } else {
    for (size_t f = 0; f < out_channels_; ++f) {
      const float* g_plane = g + f * oh * ow;
      for (size_t c = 0; c < in_channels_; ++c) {
        float* gi_plane = gi + c * h * w;
        const size_t kernel_base = (f * in_channels_ + c) * kk;
        for (size_t ky = 0; ky < kernel_; ++ky) {
          for (size_t kx = 0; kx < kernel_; ++kx) {
            const float kval = weights[kernel_base + ky * kernel_ + kx];
            for (size_t y = 0; y < oh; ++y) {
              const float* g_row = g_plane + y * ow;
              float* gi_row = gi_plane + (y + ky) * w + kx;
              for (size_t x = 0; x < ow; ++x) {
                gi_row[x] += g_row[x] * kval;
              }
            }
          }
        }
      }
    }
  }
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
                                          dweight_.size()));
  blocks->push_back(LaneGradBlock::Stored(lane_dbias_.data(), dbias_.size()));
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
