#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/env.h"
#include "util/simd.h"

namespace dpaudit {
namespace {

size_t Volume(const std::vector<size_t>& shape) {
  size_t v = 1;
  for (size_t d : shape) {
    DPAUDIT_CHECK_GT(d, 0u) << "zero extent in tensor shape";
    v *= d;
  }
  return v;
}

// ---- Lane pack -------------------------------------------------------------
//
// Both directions make one element-major pass: each step moves one element
// of every lane, so the lane-SoA side is read or written contiguously and
// each per-example row streams forward. The AVX2 wrappers move 8 elements
// of 8 lanes per step as an 8x8 register transpose.

void PackLanesBody(const float* const* in, size_t elems, size_t lanes,
                   float* out) {
  for (size_t e = 0; e < elems; ++e) {
    for (size_t l = 0; l < lanes; ++l) out[e * lanes + l] = in[l][e];
  }
}

void UnpackLanesBody(const float* src, size_t elems, size_t lanes,
                     size_t count, float* out) {
  for (size_t e = 0; e < elems; ++e) {
    for (size_t l = 0; l < count; ++l) out[l * elems + e] = src[e * lanes + l];
  }
}

#if defined(DPAUDIT_X86_DISPATCH)
// In-register transpose: row k of the input becomes column k of the output.
__attribute__((target("avx2"))) inline void Transpose8x8(__m256* r) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

__attribute__((target("avx2"))) void PackLanes8Avx2(const float* const* in,
                                                    size_t elems, float* out) {
  size_t e = 0;
  for (; e + 8 <= elems; e += 8) {
    __m256 r[8];
    for (size_t l = 0; l < 8; ++l) r[l] = _mm256_loadu_ps(in[l] + e);
    Transpose8x8(r);
    for (size_t k = 0; k < 8; ++k) _mm256_storeu_ps(out + (e + k) * 8, r[k]);
  }
  for (; e < elems; ++e) {
    for (size_t l = 0; l < 8; ++l) out[e * 8 + l] = in[l][e];
  }
}

__attribute__((target("avx2"))) void UnpackLanes8Avx2(const float* src,
                                                      size_t elems,
                                                      float* out) {
  size_t e = 0;
  for (; e + 8 <= elems; e += 8) {
    __m256 r[8];
    for (size_t k = 0; k < 8; ++k) r[k] = _mm256_loadu_ps(src + (e + k) * 8);
    Transpose8x8(r);
    for (size_t l = 0; l < 8; ++l) _mm256_storeu_ps(out + l * elems + e, r[l]);
  }
  for (; e < elems; ++e) {
    for (size_t l = 0; l < 8; ++l) out[l * elems + e] = src[e * 8 + l];
  }
}
#endif  // DPAUDIT_X86_DISPATCH

}  // namespace

Tensor::Tensor(std::vector<size_t> shape)
    : shape_(std::move(shape)), data_(Volume(shape_), 0.0f) {}

Tensor::Tensor(std::vector<size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  DPAUDIT_CHECK_EQ(Volume(shape_), data_.size());
}

void Tensor::ResizeTo(const std::vector<size_t>& shape) {
  if (shape_ == shape) return;
  shape_ = shape;
  data_.resize(Volume(shape_));
}

void Tensor::ResizeTo(std::initializer_list<size_t> shape) {
  if (shape_.size() == shape.size() &&
      std::equal(shape.begin(), shape.end(), shape_.begin())) {
    return;
  }
  shape_.assign(shape.begin(), shape.end());
  data_.resize(Volume(shape_));
}

Tensor Tensor::Full(std::vector<size_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

size_t Tensor::Offset2(size_t i, size_t j) const {
  DPAUDIT_CHECK_EQ(rank(), 2u);
  DPAUDIT_CHECK_LT(i, shape_[0]);
  DPAUDIT_CHECK_LT(j, shape_[1]);
  return i * shape_[1] + j;
}

size_t Tensor::Offset3(size_t i, size_t j, size_t k) const {
  DPAUDIT_CHECK_EQ(rank(), 3u);
  DPAUDIT_CHECK_LT(i, shape_[0]);
  DPAUDIT_CHECK_LT(j, shape_[1]);
  DPAUDIT_CHECK_LT(k, shape_[2]);
  return (i * shape_[1] + j) * shape_[2] + k;
}

size_t Tensor::Offset4(size_t i, size_t j, size_t k, size_t l) const {
  DPAUDIT_CHECK_EQ(rank(), 4u);
  DPAUDIT_CHECK_LT(i, shape_[0]);
  DPAUDIT_CHECK_LT(j, shape_[1]);
  DPAUDIT_CHECK_LT(k, shape_[2]);
  DPAUDIT_CHECK_LT(l, shape_[3]);
  return ((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l;
}

float& Tensor::At(size_t i, size_t j) { return data_[Offset2(i, j)]; }
float Tensor::At(size_t i, size_t j) const { return data_[Offset2(i, j)]; }
float& Tensor::At(size_t i, size_t j, size_t k) {
  return data_[Offset3(i, j, k)];
}
float Tensor::At(size_t i, size_t j, size_t k) const {
  return data_[Offset3(i, j, k)];
}
float& Tensor::At(size_t i, size_t j, size_t k, size_t l) {
  return data_[Offset4(i, j, k, l)];
}
float Tensor::At(size_t i, size_t j, size_t k, size_t l) const {
  return data_[Offset4(i, j, k, l)];
}

void Tensor::Reshape(std::vector<size_t> shape) {
  DPAUDIT_CHECK_EQ(Volume(shape), data_.size());
  shape_ = std::move(shape);
}

void Tensor::Fill(float value) {
  for (float& x : data_) x = value;
}

void Tensor::Axpy(float alpha, const Tensor& other) {
  DPAUDIT_CHECK(shape_ == other.shape_)
      << "Axpy shape mismatch: " << ShapeString() << " vs "
      << other.ShapeString();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Tensor::Scale(float alpha) {
  for (float& x : data_) x *= alpha;
}

double Tensor::L2Norm() const {
  double sq = 0.0;
  for (float x : data_) sq += static_cast<double>(x) * x;
  return std::sqrt(sq);
}

double Tensor::Sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return s;
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

Tensor Add(const Tensor& a, const Tensor& b) {
  DPAUDIT_CHECK(a.shape() == b.shape());
  Tensor out = a;
  out.Axpy(1.0f, b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  DPAUDIT_CHECK(a.shape() == b.shape());
  Tensor out = a;
  out.Axpy(-1.0f, b);
  return out;
}

double Dot(const Tensor& a, const Tensor& b) {
  DPAUDIT_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (size_t i = 0; i < a.size(); ++i) {
    s += static_cast<double>(pa[i]) * pb[i];
  }
  return s;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  DPAUDIT_CHECK_EQ(a.rank(), 2u);
  DPAUDIT_CHECK_EQ(b.rank(), 2u);
  DPAUDIT_CHECK_EQ(a.dim(1), b.dim(0));
  size_t m = a.dim(0);
  size_t k = a.dim(1);
  size_t n = b.dim(1);
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // i-k-j loop order keeps the inner loop contiguous over both b and out.
  for (size_t i = 0; i < m; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      float aik = pa[i * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* orow = po + i * n;
      for (size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  DPAUDIT_CHECK_EQ(a.rank(), 2u);
  size_t m = a.dim(0);
  size_t n = a.dim(1);
  Tensor out({n, m});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) out.At(j, i) = a.At(i, j);
  }
  return out;
}

void PackLanes(const Tensor* const* examples, size_t lanes, Tensor* packed) {
  DPAUDIT_CHECK_GT(lanes, 0u);
  DPAUDIT_CHECK_LE(lanes, kMaxBatchLanes);
  const Tensor& first = *examples[0];
  std::vector<size_t> shape = first.shape();
  for (size_t l = 1; l < lanes; ++l) {
    DPAUDIT_CHECK(examples[l]->shape() == shape)
        << "lane " << l << " shape " << examples[l]->ShapeString()
        << " != " << first.ShapeString();
  }
  shape.push_back(lanes);
  packed->ResizeTo(shape);
  const float* in[kMaxBatchLanes];
  for (size_t l = 0; l < lanes; ++l) in[l] = examples[l]->data();
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && HasAvx2()) {
    PackLanes8Avx2(in, first.size(), packed->data());
    return;
  }
#endif
  PackLanesBody(in, first.size(), lanes, packed->data());
}

void UnpackLanes(const float* src, size_t elems, size_t lanes, size_t count,
                 float* dst) {
  DPAUDIT_CHECK_LE(count, lanes);
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && count == 8 && HasAvx2()) {
    UnpackLanes8Avx2(src, elems, dst);
    return;
  }
#endif
  UnpackLanesBody(src, elems, lanes, count, dst);
}

void UnpackLane(const Tensor& packed, size_t lane, Tensor* example) {
  DPAUDIT_CHECK_GE(packed.rank(), 2u);
  const size_t lanes = packed.dim(packed.rank() - 1);
  DPAUDIT_CHECK_LT(lane, lanes);
  std::vector<size_t> shape = packed.shape();
  shape.pop_back();
  example->ResizeTo(shape);
  const size_t elems = example->size();
  const float* in = packed.data();
  float* out = example->data();
  for (size_t e = 0; e < elems; ++e) out[e] = in[e * lanes + lane];
}

}  // namespace dpaudit
