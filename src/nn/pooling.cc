#include "nn/pooling.h"

#include <sstream>

#include "tensor/tensor.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/simd.h"

namespace dpaudit {

namespace {

// ---- Batched lane kernel ---------------------------------------------------
//
// One body shared between the portable path (runtime `lanes`) and the AVX2
// wrapper (lanes pinned to 8). Candidates are visited in (py, px) order with
// a strict greater-than, expressed as branchless selects so the compiler can
// vectorize across lanes; ties therefore resolve to the first maximum in
// that order for any lane count.

DPAUDIT_LANE_INLINE void MaxPoolForwardLanesBody(
    const float* __restrict__ in, float* __restrict__ out,
    int* __restrict__ argmax, size_t c, size_t h, size_t w, size_t pool,
    size_t oh, size_t ow, size_t lanes) {
  size_t cell = 0;
  for (size_t ch = 0; ch < c; ++ch) {
    const float* plane = in + ch * h * w * lanes;
    const int plane_base = static_cast<int>(ch * h * w);
    for (size_t y = 0; y < oh; ++y) {
      for (size_t x = 0; x < ow; ++x, ++cell) {
        const size_t base = y * pool * w + x * pool;
        float best[kMaxBatchLanes];
        int boff[kMaxBatchLanes];
        const float* first = plane + base * lanes;
        for (size_t l = 0; l < lanes; ++l) {
          best[l] = first[l];
          boff[l] = static_cast<int>(base);
        }
        for (size_t py = 0; py < pool; ++py) {
          for (size_t px = 0; px < pool; ++px) {
            const size_t off = base + py * w + px;
            const float* cand = plane + off * lanes;
            for (size_t l = 0; l < lanes; ++l) {
              const bool take = cand[l] > best[l];
              best[l] = take ? cand[l] : best[l];
              boff[l] = take ? static_cast<int>(off) : boff[l];
            }
          }
        }
        float* ov = out + cell * lanes;
        int* av = argmax + cell * lanes;
        for (size_t l = 0; l < lanes; ++l) {
          ov[l] = best[l];
          av[l] = plane_base + boff[l];
        }
      }
    }
  }
}

#if defined(DPAUDIT_X86_DISPATCH)
// Hand-vectorized: one ymm of lane values plus one of lane argmaxes per
// output element, candidates blended in the body's (py, px) order with the
// same strict greater-than (false on NaN, like the body's compare), so
// values and tie-breaks match the portable body exactly. Written with
// intrinsics because the mixed float/int selects defeat the autovectorizer.
__attribute__((target("avx2"))) void MaxPoolForwardLanes8Avx2(
    const float* in, float* out, int* argmax, size_t c, size_t h, size_t w,
    size_t pool, size_t oh, size_t ow) {
  size_t cell = 0;
  for (size_t ch = 0; ch < c; ++ch) {
    const float* plane = in + ch * h * w * 8;
    const __m256i plane_base = _mm256_set1_epi32(static_cast<int>(ch * h * w));
    for (size_t y = 0; y < oh; ++y) {
      for (size_t x = 0; x < ow; ++x, ++cell) {
        const size_t base = y * pool * w + x * pool;
        __m256 best = _mm256_loadu_ps(plane + base * 8);
        __m256i boff = _mm256_set1_epi32(static_cast<int>(base));
        for (size_t py = 0; py < pool; ++py) {
          for (size_t px = 0; px < pool; ++px) {
            const size_t off = base + py * w + px;
            const __m256 cand = _mm256_loadu_ps(plane + off * 8);
            const __m256 take = _mm256_cmp_ps(cand, best, _CMP_GT_OQ);
            best = _mm256_blendv_ps(best, cand, take);
            boff = _mm256_blendv_epi8(boff,
                                      _mm256_set1_epi32(static_cast<int>(off)),
                                      _mm256_castps_si256(take));
          }
        }
        _mm256_storeu_ps(out + cell * 8, best);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(argmax + cell * 8),
                            _mm256_add_epi32(plane_base, boff));
      }
    }
  }
}
#endif  // DPAUDIT_X86_DISPATCH

}  // namespace

MaxPool2d::MaxPool2d(size_t pool) : pool_(pool) {
  DPAUDIT_CHECK_GT(pool_, 0u);
}

void MaxPool2d::ForwardBatchInto(const Tensor& input, size_t lanes,
                                 Tensor* output) {
  DPAUDIT_CHECK_GT(lanes, 0u);
  DPAUDIT_CHECK_LE(lanes, kMaxBatchLanes);
  DPAUDIT_CHECK_EQ(input.rank(), 4u);  // [C, H, W, lanes]
  DPAUDIT_CHECK_EQ(input.dim(3), lanes);
  const size_t c = input.dim(0);
  const size_t h = input.dim(1);
  const size_t w = input.dim(2);
  DPAUDIT_CHECK_GE(h, pool_);
  DPAUDIT_CHECK_GE(w, pool_);
  const size_t oh = h / pool_;
  const size_t ow = w / pool_;
  batch_input_shape_ = input.shape();
  batch_lanes_ = lanes;
  output->ResizeTo({c, oh, ow, lanes});
  lane_argmax_.resize(c * oh * ow * lanes);
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && HasAvx2()) {
    MaxPoolForwardLanes8Avx2(input.data(), output->data(), lane_argmax_.data(),
                             c, h, w, pool_, oh, ow);
    return;
  }
#endif
  MaxPoolForwardLanesBody(input.data(), output->data(), lane_argmax_.data(),
                          c, h, w, pool_, oh, ow, lanes);
}

void MaxPool2d::BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                                  Tensor* grad_input) {
  if (grad_input == nullptr) return;  // no parameters, nothing else to do
  DPAUDIT_CHECK_EQ(lanes, batch_lanes_);
  DPAUDIT_CHECK_EQ(grad_output.size(), lane_argmax_.size())
      << "Backward before Forward, or shape changed";
  grad_input->ResizeTo(batch_input_shape_);
  grad_input->Fill(0.0f);
  const float* g = grad_output.data();
  float* gi = grad_input->data();
  const size_t cells = lane_argmax_.size() / lanes;
  for (size_t i = 0; i < cells; ++i) {
    const float* gv = g + i * lanes;
    const int* av = lane_argmax_.data() + i * lanes;
    for (size_t l = 0; l < lanes; ++l) {
      gi[static_cast<size_t>(av[l]) * lanes + l] += gv[l];
    }
  }
}

std::string MaxPool2d::Name() const {
  std::ostringstream os;
  os << "maxpool(" << pool_ << "x" << pool_ << ")";
  return os.str();
}

}  // namespace dpaudit
