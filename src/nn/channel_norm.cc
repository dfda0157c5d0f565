#include "nn/channel_norm.h"

#include <cmath>
#include <sstream>

#include "tensor/tensor.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/simd.h"

namespace dpaudit {

namespace {

#if defined(DPAUDIT_X86_DISPATCH)

// The normalize and grad-input passes are elementwise (no accumulation
// chains), so running four elements per iteration performs exactly the same
// double-precision operations per element as the scalar code and the results
// are bit-identical. Explicit mul/add intrinsics are never FMA-contracted.

__attribute__((target("avx2"))) void NormalizeChannelAvx2(
    const float* xc, double mean, double inv_std, float gamma, float beta,
    float* nh, float* o, size_t m) {
  const __m256d vm = _mm256_set1_pd(mean);
  const __m256d vs = _mm256_set1_pd(inv_std);
  const __m256d vg = _mm256_set1_pd(static_cast<double>(gamma));
  const __m256d vb = _mm256_set1_pd(static_cast<double>(beta));
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d x = _mm256_cvtps_pd(_mm_loadu_ps(xc + i));
    const __m256d xhat = _mm256_mul_pd(_mm256_sub_pd(x, vm), vs);
    _mm_storeu_ps(nh + i, _mm256_cvtpd_ps(xhat));
    _mm_storeu_ps(o + i,
                  _mm256_cvtpd_ps(_mm256_add_pd(_mm256_mul_pd(vg, xhat), vb)));
  }
  for (; i < m; ++i) {
    double xhat = (xc[i] - mean) * inv_std;
    nh[i] = static_cast<float>(xhat);
    o[i] = static_cast<float>(gamma * xhat + beta);
  }
}

__attribute__((target("avx2"))) void GradInputChannelAvx2(
    const float* gc, const float* xh, double md, double sum_g, double sum_gx,
    double scale, float* gx, size_t m) {
  const __m256d vmd = _mm256_set1_pd(md);
  const __m256d vsg = _mm256_set1_pd(sum_g);
  const __m256d vsgx = _mm256_set1_pd(sum_gx);
  const __m256d vscale = _mm256_set1_pd(scale);
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d gv = _mm256_cvtps_pd(_mm_loadu_ps(gc + i));
    const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(xh + i));
    const __m256d t = _mm256_sub_pd(_mm256_sub_pd(_mm256_mul_pd(vmd, gv), vsg),
                                    _mm256_mul_pd(xv, vsgx));
    _mm_storeu_ps(gx + i, _mm256_cvtpd_ps(_mm256_mul_pd(vscale, t)));
  }
  for (; i < m; ++i) {
    gx[i] = static_cast<float>(
        scale * (md * gc[i] - sum_g - static_cast<double>(xh[i]) * sum_gx));
  }
}

#endif  // DPAUDIT_X86_DISPATCH

// ---- Batched lane kernels --------------------------------------------------
//
// Bodies shared between the portable path (runtime `lanes`) and the AVX2
// wrappers (lanes pinned to 8). Each (channel, lane) pair keeps its own
// double accumulator chain advancing in ascending spatial order — the exact
// chains the scalar passes run — so statistics, normalized values, and
// gradients are bit-identical per lane.

DPAUDIT_LANE_INLINE void ChannelNormForwardLanesBody(
    const float* in, const float* gamma, const float* beta, double epsilon,
    float* nh, float* o, double* mean, double* inv_std, size_t channels,
    size_t m, size_t lanes) {
  for (size_t c = 0; c < channels; ++c) {
    const float* p = in + c * m * lanes;
    double* mc = mean + c * lanes;
    double* sc = inv_std + c * lanes;
    double acc[kMaxBatchLanes];
    for (size_t l = 0; l < lanes; ++l) acc[l] = 0.0;
    for (size_t i = 0; i < m; ++i) {
      const float* pv = p + i * lanes;
      for (size_t l = 0; l < lanes; ++l) acc[l] += pv[l];
    }
    for (size_t l = 0; l < lanes; ++l) mc[l] = acc[l] / static_cast<double>(m);
    double vacc[kMaxBatchLanes];
    for (size_t l = 0; l < lanes; ++l) vacc[l] = 0.0;
    for (size_t i = 0; i < m; ++i) {
      const float* pv = p + i * lanes;
      for (size_t l = 0; l < lanes; ++l) {
        const double d = pv[l] - mc[l];
        vacc[l] += d * d;
      }
    }
    for (size_t l = 0; l < lanes; ++l) {
      const double var = vacc[l] / static_cast<double>(m);
      sc[l] = 1.0 / std::sqrt(var + epsilon);
    }
    const float gcf = gamma[c];
    const float bcf = beta[c];
    float* nhc = nh + c * m * lanes;
    float* oc = o + c * m * lanes;
    for (size_t i = 0; i < m; ++i) {
      const float* pv = p + i * lanes;
      float* nv = nhc + i * lanes;
      float* ov = oc + i * lanes;
      for (size_t l = 0; l < lanes; ++l) {
        const double xhat = (pv[l] - mc[l]) * sc[l];
        nv[l] = static_cast<float>(xhat);
        ov[l] = static_cast<float>(gcf * xhat + bcf);
      }
    }
  }
}

DPAUDIT_LANE_INLINE void ChannelNormBackwardLanesBody(
    const float* g, const float* nh, const float* gamma,
    const double* inv_std, float* dgamma, float* dbeta, float* gx,
    size_t channels, size_t m, size_t lanes) {
  for (size_t c = 0; c < channels; ++c) {
    const float* gc = g + c * m * lanes;
    const float* xc = nh + c * m * lanes;
    double s[kMaxBatchLanes];
    double t[kMaxBatchLanes];
    for (size_t l = 0; l < lanes; ++l) {
      s[l] = 0.0;
      t[l] = 0.0;
    }
    for (size_t i = 0; i < m; ++i) {
      const float* gv = gc + i * lanes;
      const float* xv = xc + i * lanes;
      for (size_t l = 0; l < lanes; ++l) {
        s[l] += gv[l];
        t[l] += static_cast<double>(gv[l]) * xv[l];
      }
    }
    for (size_t l = 0; l < lanes; ++l) {
      dbeta[c * lanes + l] = static_cast<float>(s[l]);
      dgamma[c * lanes + l] = static_cast<float>(t[l]);
    }
    if (gx == nullptr) continue;
    const float gcf = gamma[c];
    const double md = static_cast<double>(m);
    double scale[kMaxBatchLanes];
    for (size_t l = 0; l < lanes; ++l) {
      scale[l] = gcf * inv_std[c * lanes + l] / md;
    }
    float* gxc = gx + c * m * lanes;
    for (size_t i = 0; i < m; ++i) {
      const float* gv = gc + i * lanes;
      const float* xv = xc + i * lanes;
      float* gxv = gxc + i * lanes;
      for (size_t l = 0; l < lanes; ++l) {
        gxv[l] = static_cast<float>(scale[l] *
                                    (md * gv[l] - s[l] - xv[l] * t[l]));
      }
    }
  }
}

#if defined(DPAUDIT_X86_DISPATCH)
__attribute__((target("avx2"))) void ChannelNormForwardLanes8Avx2(
    const float* in, const float* gamma, const float* beta, double epsilon,
    float* nh, float* o, double* mean, double* inv_std, size_t channels,
    size_t m) {
  ChannelNormForwardLanesBody(in, gamma, beta, epsilon, nh, o, mean, inv_std,
                              channels, m, 8);
}

// Hand-vectorized: the eight lanes split into two 4-wide double halves, each
// lane keeping its own sum chains advancing in ascending spatial order and
// the grad-input pass transcribing the scalar expression operation for
// operation (explicit mul/sub, never FMA-contracted), so every lane is
// bit-identical to the portable body. Intrinsics because the float->double
// widening defeats the autovectorizer here.
__attribute__((target("avx2"))) void ChannelNormBackwardLanes8Avx2(
    const float* g, const float* nh, const float* gamma,
    const double* inv_std, float* dgamma, float* dbeta, float* gx,
    size_t channels, size_t m) {
  for (size_t c = 0; c < channels; ++c) {
    const float* gc = g + c * m * 8;
    const float* xc = nh + c * m * 8;
    __m256d s_lo = _mm256_setzero_pd();
    __m256d s_hi = _mm256_setzero_pd();
    __m256d t_lo = _mm256_setzero_pd();
    __m256d t_hi = _mm256_setzero_pd();
    for (size_t i = 0; i < m; ++i) {
      const __m256d gv_lo = _mm256_cvtps_pd(_mm_loadu_ps(gc + i * 8));
      const __m256d gv_hi = _mm256_cvtps_pd(_mm_loadu_ps(gc + i * 8 + 4));
      const __m256d xv_lo = _mm256_cvtps_pd(_mm_loadu_ps(xc + i * 8));
      const __m256d xv_hi = _mm256_cvtps_pd(_mm_loadu_ps(xc + i * 8 + 4));
      s_lo = _mm256_add_pd(s_lo, gv_lo);
      s_hi = _mm256_add_pd(s_hi, gv_hi);
      t_lo = _mm256_add_pd(t_lo, _mm256_mul_pd(gv_lo, xv_lo));
      t_hi = _mm256_add_pd(t_hi, _mm256_mul_pd(gv_hi, xv_hi));
    }
    _mm_storeu_ps(dbeta + c * 8, _mm256_cvtpd_ps(s_lo));
    _mm_storeu_ps(dbeta + c * 8 + 4, _mm256_cvtpd_ps(s_hi));
    _mm_storeu_ps(dgamma + c * 8, _mm256_cvtpd_ps(t_lo));
    _mm_storeu_ps(dgamma + c * 8 + 4, _mm256_cvtpd_ps(t_hi));
    if (gx == nullptr) continue;
    const __m256d vg = _mm256_set1_pd(static_cast<double>(gamma[c]));
    const __m256d vmd = _mm256_set1_pd(static_cast<double>(m));
    const __m256d scale_lo = _mm256_div_pd(
        _mm256_mul_pd(vg, _mm256_loadu_pd(inv_std + c * 8)), vmd);
    const __m256d scale_hi = _mm256_div_pd(
        _mm256_mul_pd(vg, _mm256_loadu_pd(inv_std + c * 8 + 4)), vmd);
    float* gxc = gx + c * m * 8;
    for (size_t i = 0; i < m; ++i) {
      const __m256d gv_lo = _mm256_cvtps_pd(_mm_loadu_ps(gc + i * 8));
      const __m256d gv_hi = _mm256_cvtps_pd(_mm_loadu_ps(gc + i * 8 + 4));
      const __m256d xv_lo = _mm256_cvtps_pd(_mm_loadu_ps(xc + i * 8));
      const __m256d xv_hi = _mm256_cvtps_pd(_mm_loadu_ps(xc + i * 8 + 4));
      const __m256d r_lo = _mm256_mul_pd(
          scale_lo,
          _mm256_sub_pd(_mm256_sub_pd(_mm256_mul_pd(vmd, gv_lo), s_lo),
                        _mm256_mul_pd(xv_lo, t_lo)));
      const __m256d r_hi = _mm256_mul_pd(
          scale_hi,
          _mm256_sub_pd(_mm256_sub_pd(_mm256_mul_pd(vmd, gv_hi), s_hi),
                        _mm256_mul_pd(xv_hi, t_hi)));
      _mm_storeu_ps(gxc + i * 8, _mm256_cvtpd_ps(r_lo));
      _mm_storeu_ps(gxc + i * 8 + 4, _mm256_cvtpd_ps(r_hi));
    }
  }
}
#endif  // DPAUDIT_X86_DISPATCH

}  // namespace

ChannelNorm::ChannelNorm(size_t channels, double epsilon)
    : channels_(channels),
      epsilon_(epsilon),
      gamma_({channels}),
      beta_({channels}),
      dgamma_({channels}),
      dbeta_({channels}) {
  gamma_.Fill(1.0f);
  beta_.Fill(0.0f);
}

void ChannelNorm::ForwardInto(const Tensor& input, Tensor* output) {
  DPAUDIT_CHECK_EQ(input.rank(), 3u);
  DPAUDIT_CHECK_EQ(input.dim(0), channels_);
  size_t m = input.dim(1) * input.dim(2);
  DPAUDIT_CHECK_GT(m, 1u) << "channel norm needs > 1 value per channel";
  normalized_.ResizeTo(input.shape());
  inv_std_.assign(channels_, 0.0);
  mean_.assign(channels_, 0.0);
  var_.assign(channels_, 0.0);
  output->ResizeTo(input.shape());
  const float* in = input.data();
  float* nh = normalized_.data();
  float* o = output->data();
  // Mean and variance passes keep one accumulator chain per channel, blocked
  // four channels at a time so the chains live in registers instead of
  // bouncing through memory; each chain still adds its elements in index
  // order, so the sums are bit-identical to the naive loop.
  {
    size_t c = 0;
    for (; c + 4 <= channels_; c += 4) {
      const float* p0 = in + c * m;
      const float* p1 = p0 + m;
      const float* p2 = p1 + m;
      const float* p3 = p2 + m;
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (size_t i = 0; i < m; ++i) {
        a0 += p0[i];
        a1 += p1[i];
        a2 += p2[i];
        a3 += p3[i];
      }
      mean_[c] = a0;
      mean_[c + 1] = a1;
      mean_[c + 2] = a2;
      mean_[c + 3] = a3;
    }
    for (; c < channels_; ++c) {
      const float* p = in + c * m;
      double acc = 0.0;
      for (size_t i = 0; i < m; ++i) acc += p[i];
      mean_[c] = acc;
    }
  }
  for (size_t c = 0; c < channels_; ++c) mean_[c] /= static_cast<double>(m);
  {
    size_t c = 0;
    for (; c + 4 <= channels_; c += 4) {
      const float* p0 = in + c * m;
      const float* p1 = p0 + m;
      const float* p2 = p1 + m;
      const float* p3 = p2 + m;
      const double m0 = mean_[c], m1 = mean_[c + 1];
      const double m2 = mean_[c + 2], m3 = mean_[c + 3];
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (size_t i = 0; i < m; ++i) {
        double d0 = p0[i] - m0;
        double d1 = p1[i] - m1;
        double d2 = p2[i] - m2;
        double d3 = p3[i] - m3;
        a0 += d0 * d0;
        a1 += d1 * d1;
        a2 += d2 * d2;
        a3 += d3 * d3;
      }
      var_[c] = a0;
      var_[c + 1] = a1;
      var_[c + 2] = a2;
      var_[c + 3] = a3;
    }
    for (; c < channels_; ++c) {
      const float* p = in + c * m;
      const double mc = mean_[c];
      double acc = 0.0;
      for (size_t i = 0; i < m; ++i) {
        double d = p[i] - mc;
        acc += d * d;
      }
      var_[c] = acc;
    }
  }
#if defined(DPAUDIT_X86_DISPATCH)
  const bool use_avx2 = HasAvx2();
#else
  const bool use_avx2 = false;
#endif
  for (size_t c = 0; c < channels_; ++c) {
    double var = var_[c] / static_cast<double>(m);
    double inv_std = 1.0 / std::sqrt(var + epsilon_);
    inv_std_[c] = inv_std;
    double mean = mean_[c];
    const float* xc = in + c * m;
    float g = gamma_[c];
    float b = beta_[c];
    if (use_avx2) {
#if defined(DPAUDIT_X86_DISPATCH)
      NormalizeChannelAvx2(xc, mean, inv_std, g, b, nh + c * m, o + c * m, m);
#endif
    } else {
      for (size_t i = 0; i < m; ++i) {
        double xhat = (xc[i] - mean) * inv_std;
        nh[c * m + i] = static_cast<float>(xhat);
        o[c * m + i] = static_cast<float>(g * xhat + b);
      }
    }
  }
}

void ChannelNorm::BackwardInto(const Tensor& grad_output, Tensor* grad_input) {
  DPAUDIT_CHECK(grad_output.shape() == normalized_.shape())
      << "Backward before Forward, or shape changed";
  size_t m = grad_output.dim(1) * grad_output.dim(2);
  grad_input->ResizeTo(grad_output.shape());
  const float* g = grad_output.data();
  const float* nh = normalized_.data();
  float* gx = grad_input->data();
  sum_g_.assign(channels_, 0.0);
  sum_gx_.assign(channels_, 0.0);
  // Same register-blocked chains as the forward statistics passes.
  {
    size_t c = 0;
    for (; c + 2 <= channels_; c += 2) {
      const float* g0 = g + c * m;
      const float* g1 = g0 + m;
      const float* x0 = nh + c * m;
      const float* x1 = x0 + m;
      double s0 = 0.0, s1 = 0.0, t0 = 0.0, t1 = 0.0;
      for (size_t i = 0; i < m; ++i) {
        s0 += g0[i];
        s1 += g1[i];
        t0 += static_cast<double>(g0[i]) * x0[i];
        t1 += static_cast<double>(g1[i]) * x1[i];
      }
      sum_g_[c] = s0;
      sum_g_[c + 1] = s1;
      sum_gx_[c] = t0;
      sum_gx_[c + 1] = t1;
    }
    for (; c < channels_; ++c) {
      const float* gc = g + c * m;
      const float* xc = nh + c * m;
      double s = 0.0, t = 0.0;
      for (size_t i = 0; i < m; ++i) {
        s += gc[i];
        t += static_cast<double>(gc[i]) * xc[i];
      }
      sum_g_[c] = s;
      sum_gx_[c] = t;
    }
  }
#if defined(DPAUDIT_X86_DISPATCH)
  const bool use_avx2 = HasAvx2();
#else
  const bool use_avx2 = false;
#endif
  for (size_t c = 0; c < channels_; ++c) {
    const float* gc = g + c * m;
    const float* xh = nh + c * m;
    double sum_g = sum_g_[c];
    double sum_gx = sum_gx_[c];
    dbeta_[c] += static_cast<float>(sum_g);
    dgamma_[c] += static_cast<float>(sum_gx);
    // dL/dx = gamma * inv_std / m * (m*g - sum(g) - x_hat * sum(g*x_hat)).
    double scale = gamma_[c] * inv_std_[c] / static_cast<double>(m);
    if (use_avx2) {
#if defined(DPAUDIT_X86_DISPATCH)
      GradInputChannelAvx2(gc, xh, static_cast<double>(m), sum_g, sum_gx,
                           scale, gx + c * m, m);
#endif
    } else {
      for (size_t i = 0; i < m; ++i) {
        gx[c * m + i] = static_cast<float>(
            scale * (static_cast<double>(m) * gc[i] - sum_g - xh[i] * sum_gx));
      }
    }
  }
}

void ChannelNorm::ForwardBatchInto(const Tensor& input, size_t lanes,
                                   Tensor* output) {
  DPAUDIT_CHECK_GT(lanes, 0u);
  DPAUDIT_CHECK_LE(lanes, kMaxBatchLanes);
  DPAUDIT_CHECK_EQ(input.rank(), 4u);  // [C, H, W, lanes]
  DPAUDIT_CHECK_EQ(input.dim(0), channels_);
  DPAUDIT_CHECK_EQ(input.dim(3), lanes);
  const size_t m = input.dim(1) * input.dim(2);
  DPAUDIT_CHECK_GT(m, 1u) << "channel norm needs > 1 value per channel";
  batch_lanes_ = lanes;
  lane_normalized_.ResizeTo(input.shape());
  lane_mean_.resize(channels_ * lanes);
  lane_inv_std_.resize(channels_ * lanes);
  output->ResizeTo(input.shape());
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && HasAvx2()) {
    ChannelNormForwardLanes8Avx2(input.data(), gamma_.data(), beta_.data(),
                                 epsilon_, lane_normalized_.data(),
                                 output->data(), lane_mean_.data(),
                                 lane_inv_std_.data(), channels_, m);
    return;
  }
#endif
  ChannelNormForwardLanesBody(input.data(), gamma_.data(), beta_.data(),
                              epsilon_, lane_normalized_.data(),
                              output->data(), lane_mean_.data(),
                              lane_inv_std_.data(), channels_, m, lanes);
}

void ChannelNorm::BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                                    Tensor* grad_input) {
  DPAUDIT_CHECK_EQ(lanes, batch_lanes_);
  DPAUDIT_CHECK(grad_output.shape() == lane_normalized_.shape())
      << "Backward before Forward, or shape changed";
  const size_t m = grad_output.dim(1) * grad_output.dim(2);
  lane_dgamma_.resize(channels_ * lanes);
  lane_dbeta_.resize(channels_ * lanes);
  float* gx = nullptr;
  if (grad_input != nullptr) {
    grad_input->ResizeTo(grad_output.shape());
    gx = grad_input->data();
  }
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && HasAvx2()) {
    ChannelNormBackwardLanes8Avx2(grad_output.data(), lane_normalized_.data(),
                                  gamma_.data(), lane_inv_std_.data(),
                                  lane_dgamma_.data(), lane_dbeta_.data(), gx,
                                  channels_, m);
    return;
  }
#endif
  ChannelNormBackwardLanesBody(grad_output.data(), lane_normalized_.data(),
                               gamma_.data(), lane_inv_std_.data(),
                               lane_dgamma_.data(), lane_dbeta_.data(), gx,
                               channels_, m, lanes);
}

void ChannelNorm::AppendLaneGrads(std::vector<const float*>* blocks) const {
  blocks->push_back(lane_dgamma_.data());
  blocks->push_back(lane_dbeta_.data());
}

std::unique_ptr<Layer> ChannelNorm::Clone() const {
  auto copy = std::make_unique<ChannelNorm>(channels_, epsilon_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  return copy;
}

std::string ChannelNorm::Name() const {
  std::ostringstream os;
  os << "channel_norm(" << channels_ << ")";
  return os.str();
}

}  // namespace dpaudit
