#include "nn/activations.h"

#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/simd.h"

namespace dpaudit {

namespace {

#if defined(DPAUDIT_X86_DISPATCH)

// Pure selects, no arithmetic, so the vector forms are trivially
// bit-identical; the point is replacing a data-dependent branch per element
// (which mispredicts heavily on real activations) with branchless masks.

__attribute__((target("avx2"))) void ReluForwardAvx2(const float* in,
                                                     float* out, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(in + i);
    // x where x > 0, +0.0 otherwise (NaN compares false, like the loop).
    _mm256_storeu_ps(out + i,
                     _mm256_and_ps(_mm256_cmp_ps(x, zero, _CMP_GT_OQ), x));
  }
  for (; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

__attribute__((target("avx2"))) void ReluBackwardAvx2(const float* x,
                                                      const float* g,
                                                      float* gi, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 gv = _mm256_loadu_ps(g + i);
    // +0.0 where x <= 0, g otherwise; x = NaN compares false and takes g,
    // matching the loop's `x <= 0 ? 0 : g`.
    _mm256_storeu_ps(
        gi + i,
        _mm256_andnot_ps(_mm256_cmp_ps(xv, zero, _CMP_LE_OQ), gv));
  }
  for (; i < n; ++i) gi[i] = x[i] <= 0.0f ? 0.0f : g[i];
}

#endif  // DPAUDIT_X86_DISPATCH

}  // namespace

void Relu::ForwardBatchInto(const Tensor& input, size_t lanes,
                            Tensor* output) {
  DPAUDIT_CHECK_GT(lanes, 0u);
  DPAUDIT_CHECK_EQ(input.size() % lanes, 0u);
  last_input_ = &input;
  output->ResizeTo(input.shape());
  const float* in = input.data();
  float* out = output->data();
  const size_t n = input.size();
#if defined(DPAUDIT_X86_DISPATCH)
  if (HasAvx2()) {
    ReluForwardAvx2(in, out, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

void Relu::BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                             Tensor* grad_input) {
  DPAUDIT_CHECK_GT(lanes, 0u);
  if (grad_input == nullptr) return;  // no parameters, nothing else to do
  DPAUDIT_CHECK(last_input_ != nullptr) << "Backward before Forward";
  DPAUDIT_CHECK_EQ(grad_output.size(), last_input_->size());
  grad_input->ResizeTo(grad_output.shape());
  const float* g = grad_output.data();
  const float* x = last_input_->data();
  float* gi = grad_input->data();
  const size_t n = grad_output.size();
#if defined(DPAUDIT_X86_DISPATCH)
  if (HasAvx2()) {
    ReluBackwardAvx2(x, g, gi, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) gi[i] = x[i] <= 0.0f ? 0.0f : g[i];
}

}  // namespace dpaudit
