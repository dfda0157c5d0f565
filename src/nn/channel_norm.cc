#include "nn/channel_norm.h"

#include <cmath>
#include <sstream>

#include "tensor/tensor.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/simd.h"

namespace dpaudit {

namespace {

// ---- Batched lane kernels --------------------------------------------------
//
// Bodies shared between the portable path (runtime `lanes`) and the AVX2
// wrappers (lanes pinned to 8). Each (channel, lane) pair keeps its own
// double accumulator chain advancing in ascending spatial order, so
// statistics, normalized values, and gradients are bit-identical per lane
// for any lane count. The statistics and gradient-sum
// passes register-block several channels so their independent chains hide
// the add latency; blocking interleaves chains without reordering any of
// them. The sum(g * x_hat) chain adds products of two floats in double,
// which the AVX2 backward fuses into FMAs without changing a bit.

constexpr size_t kStatsCBlock = 4;  // forward mean/variance: channels per pass
constexpr size_t kSumsCBlock = 2;   // backward sum(g), sum(g * x_hat)

// Mean and inverse standard deviation of channels c .. c + kCB - 1.
template <size_t kCB>
DPAUDIT_LANE_INLINE void ChannelNormStatsLanesBlock(
    const float* __restrict__ in, double epsilon, double* __restrict__ mean,
    double* __restrict__ inv_std, size_t c, size_t m, size_t lanes) {
  const float* p = in + c * m * lanes;
  double acc[kCB][kMaxBatchLanes];
  for (size_t j = 0; j < kCB; ++j) {
    for (size_t l = 0; l < lanes; ++l) acc[j][l] = 0.0;
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < kCB; ++j) {
      const float* pv = p + (j * m + i) * lanes;
      for (size_t l = 0; l < lanes; ++l) acc[j][l] += pv[l];
    }
  }
  double mc[kCB][kMaxBatchLanes];
  for (size_t j = 0; j < kCB; ++j) {
    for (size_t l = 0; l < lanes; ++l) {
      mc[j][l] = acc[j][l] / static_cast<double>(m);
      mean[(c + j) * lanes + l] = mc[j][l];
      acc[j][l] = 0.0;
    }
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < kCB; ++j) {
      const float* pv = p + (j * m + i) * lanes;
      for (size_t l = 0; l < lanes; ++l) {
        const double d = pv[l] - mc[j][l];
        acc[j][l] += d * d;
      }
    }
  }
  for (size_t j = 0; j < kCB; ++j) {
    for (size_t l = 0; l < lanes; ++l) {
      const double var = acc[j][l] / static_cast<double>(m);
      inv_std[(c + j) * lanes + l] = 1.0 / std::sqrt(var + epsilon);
    }
  }
}

DPAUDIT_LANE_INLINE void ChannelNormForwardLanesBody(
    const float* __restrict__ in, const float* __restrict__ gamma,
    const float* __restrict__ beta, double epsilon, float* __restrict__ nh,
    float* __restrict__ o, double* __restrict__ mean,
    double* __restrict__ inv_std, size_t channels, size_t m, size_t lanes) {
  size_t c = 0;
  for (; c + kStatsCBlock <= channels; c += kStatsCBlock) {
    ChannelNormStatsLanesBlock<kStatsCBlock>(in, epsilon, mean, inv_std, c, m,
                                             lanes);
  }
  for (; c < channels; ++c) {
    ChannelNormStatsLanesBlock<1>(in, epsilon, mean, inv_std, c, m, lanes);
  }
  for (c = 0; c < channels; ++c) {
    const float* p = in + c * m * lanes;
    const double* mc = mean + c * lanes;
    const double* sc = inv_std + c * lanes;
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

// dbeta = sum(g) and dgamma = sum(g * x_hat) of channels c .. c + kCB - 1,
// then their input gradients.
template <size_t kCB>
DPAUDIT_LANE_INLINE void ChannelNormBackwardLanesBlock(
    const float* __restrict__ g, const float* __restrict__ nh,
    const float* __restrict__ gamma, const double* __restrict__ inv_std,
    float* __restrict__ dgamma, float* __restrict__ dbeta,
    float* __restrict__ gx, size_t c, size_t m, size_t lanes) {
  const float* gc = g + c * m * lanes;
  const float* xc = nh + c * m * lanes;
  double s[kCB][kMaxBatchLanes];
  double t[kCB][kMaxBatchLanes];
  for (size_t j = 0; j < kCB; ++j) {
    for (size_t l = 0; l < lanes; ++l) {
      s[j][l] = 0.0;
      t[j][l] = 0.0;
    }
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < kCB; ++j) {
      const float* gv = gc + (j * m + i) * lanes;
      const float* xv = xc + (j * m + i) * lanes;
      for (size_t l = 0; l < lanes; ++l) {
        s[j][l] += gv[l];
        t[j][l] += static_cast<double>(gv[l]) * xv[l];
      }
    }
  }
  for (size_t j = 0; j < kCB; ++j) {
    for (size_t l = 0; l < lanes; ++l) {
      dbeta[(c + j) * lanes + l] = static_cast<float>(s[j][l]);
      dgamma[(c + j) * lanes + l] = static_cast<float>(t[j][l]);
    }
  }
  if (gx == nullptr) return;
  const double md = static_cast<double>(m);
  for (size_t j = 0; j < kCB; ++j) {
    const float gcf = gamma[c + j];
    double scale[kMaxBatchLanes];
    for (size_t l = 0; l < lanes; ++l) {
      scale[l] = gcf * inv_std[(c + j) * lanes + l] / md;
    }
    const float* gj = gc + j * m * lanes;
    const float* xj = xc + j * m * lanes;
    float* gxj = gx + (c + j) * m * lanes;
    for (size_t i = 0; i < m; ++i) {
      const float* gv = gj + i * lanes;
      const float* xv = xj + i * lanes;
      float* gxv = gxj + i * lanes;
      for (size_t l = 0; l < lanes; ++l) {
        gxv[l] = static_cast<float>(
            scale[l] * (md * gv[l] - s[j][l] - xv[l] * t[j][l]));
      }
    }
  }
}

DPAUDIT_LANE_INLINE void ChannelNormBackwardLanesBody(
    const float* g, const float* nh, const float* gamma,
    const double* inv_std, float* dgamma, float* dbeta, float* gx,
    size_t channels, size_t m, size_t lanes) {
  size_t c = 0;
  for (; c + kSumsCBlock <= channels; c += kSumsCBlock) {
    ChannelNormBackwardLanesBlock<kSumsCBlock>(
        g, nh, gamma, inv_std, dgamma, dbeta, gx, c, m, lanes);
  }
  for (; c < channels; ++c) {
    ChannelNormBackwardLanesBlock<1>(g, nh, gamma, inv_std, dgamma,
                                             dbeta, gx, c, m, lanes);
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

// Hand-vectorized ChannelNormBackwardLanesBlock<kCB> at eight lanes (GCC
// scalarizes the float->double widening of the shared body): each channel's
// lanes split into two 4-wide double halves, every (channel, lane) sum chain
// still advances in ascending spatial order, and the grad-input pass
// transcribes the body's expression operation for operation (explicit
// mul/sub), so every lane is bit-identical to the portable body.
template <size_t kCB>
__attribute__((target("avx2,fma"), always_inline)) inline void
ChannelNormBackwardLanes8Block(const float* g, const float* nh,
                               const float* gamma, const double* inv_std,
                               float* dgamma, float* dbeta, float* gx,
                               size_t c, size_t m) {
  const float* gc = g + c * m * 8;
  const float* xc = nh + c * m * 8;
  __m256d s[kCB][2];
  __m256d t[kCB][2];
  for (size_t j = 0; j < kCB; ++j) {
    for (size_t h = 0; h < 2; ++h) {
      s[j][h] = _mm256_setzero_pd();
      t[j][h] = _mm256_setzero_pd();
    }
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < kCB; ++j) {
      for (size_t h = 0; h < 2; ++h) {
        const size_t e = (j * m + i) * 8 + h * 4;
        const __m256d gv = _mm256_cvtps_pd(_mm_loadu_ps(gc + e));
        const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(xc + e));
        s[j][h] = _mm256_add_pd(s[j][h], gv);
        t[j][h] = _mm256_fmadd_pd(gv, xv, t[j][h]);
      }
    }
  }
  for (size_t j = 0; j < kCB; ++j) {
    for (size_t h = 0; h < 2; ++h) {
      _mm_storeu_ps(dbeta + (c + j) * 8 + h * 4, _mm256_cvtpd_ps(s[j][h]));
      _mm_storeu_ps(dgamma + (c + j) * 8 + h * 4, _mm256_cvtpd_ps(t[j][h]));
    }
  }
  if (gx == nullptr) return;
  const __m256d vmd = _mm256_set1_pd(static_cast<double>(m));
  for (size_t j = 0; j < kCB; ++j) {
    const __m256d vg = _mm256_set1_pd(static_cast<double>(gamma[c + j]));
    __m256d scale[2];
    for (size_t h = 0; h < 2; ++h) {
      scale[h] = _mm256_div_pd(
          _mm256_mul_pd(vg, _mm256_loadu_pd(inv_std + (c + j) * 8 + h * 4)),
          vmd);
    }
    const float* gj = gc + j * m * 8;
    const float* xj = xc + j * m * 8;
    float* gxj = gx + (c + j) * m * 8;
    for (size_t i = 0; i < m; ++i) {
      for (size_t h = 0; h < 2; ++h) {
        const size_t e = i * 8 + h * 4;
        const __m256d gv = _mm256_cvtps_pd(_mm_loadu_ps(gj + e));
        const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(xj + e));
        const __m256d r = _mm256_mul_pd(
            scale[h], _mm256_sub_pd(_mm256_sub_pd(_mm256_mul_pd(vmd, gv),
                                                  s[j][h]),
                                    _mm256_mul_pd(xv, t[j][h])));
        _mm_storeu_ps(gxj + e, _mm256_cvtpd_ps(r));
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void ChannelNormBackwardLanes8Avx2Fma(
    const float* g, const float* nh, const float* gamma,
    const double* inv_std, float* dgamma, float* dbeta, float* gx,
    size_t channels, size_t m) {
  size_t c = 0;
  for (; c + kSumsCBlock <= channels; c += kSumsCBlock) {
    ChannelNormBackwardLanes8Block<kSumsCBlock>(g, nh, gamma, inv_std, dgamma,
                                                dbeta, gx, c, m);
  }
  for (; c < channels; ++c) {
    ChannelNormBackwardLanes8Block<1>(g, nh, gamma, inv_std, dgamma, dbeta,
                                      gx, c, m);
  }
}
#endif  // DPAUDIT_X86_DISPATCH

}  // namespace

ChannelNorm::ChannelNorm(size_t channels, double epsilon)
    : channels_(channels),
      epsilon_(epsilon),
      gamma_({channels}),
      beta_({channels}) {
  gamma_.Fill(1.0f);
  beta_.Fill(0.0f);
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
  if (lanes == 8 && HasAvx2Fma()) {
    ChannelNormBackwardLanes8Avx2Fma(
        grad_output.data(), lane_normalized_.data(), gamma_.data(),
        lane_inv_std_.data(), lane_dgamma_.data(), lane_dbeta_.data(), gx,
        channels_, m);
    return;
  }
#endif
  ChannelNormBackwardLanesBody(
      grad_output.data(), lane_normalized_.data(), gamma_.data(),
      lane_inv_std_.data(), lane_dgamma_.data(), lane_dbeta_.data(), gx,
      channels_, m, lanes);
}

void ChannelNorm::AppendLaneGrads(
    std::vector<LaneGradBlock>* blocks) const {
  blocks->push_back(LaneGradBlock::Stored(lane_dgamma_.data(), channels_));
  blocks->push_back(LaneGradBlock::Stored(lane_dbeta_.data(), channels_));
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
