// A small dense row-major float tensor. This is the numeric substrate for the
// neural-network layers in src/nn; it deliberately supports only what DPSGD
// training needs (no broadcasting, no views onto strided storage).

#ifndef DPAUDIT_TENSOR_TENSOR_H_
#define DPAUDIT_TENSOR_TENSOR_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/logging.h"

namespace dpaudit {

/// Dense row-major tensor of floats with up to 4 dimensions in practice
/// (N, C, H, W for images; rank 1/2 for dense layers). Value-semantic.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. Every extent must be > 0.
  explicit Tensor(std::vector<size_t> shape);

  /// Tensor with explicit contents; `data.size()` must equal the shape volume.
  Tensor(std::vector<size_t> shape, std::vector<float> data);

  static Tensor Zeros(std::vector<size_t> shape) { return Tensor(shape); }
  static Tensor Full(std::vector<size_t> shape, float value);

  const std::vector<size_t>& shape() const { return shape_; }
  size_t rank() const { return shape_.size(); }
  size_t dim(size_t i) const {
    DPAUDIT_CHECK_LT(i, shape_.size());
    return shape_[i];
  }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](size_t i) {
    DPAUDIT_CHECK_LT(i, data_.size());
    return data_[i];
  }
  float operator[](size_t i) const {
    DPAUDIT_CHECK_LT(i, data_.size());
    return data_[i];
  }

  /// Indexed access for rank 2/3/4; bounds-checked.
  float& At(size_t i, size_t j);
  float At(size_t i, size_t j) const;
  float& At(size_t i, size_t j, size_t k);
  float At(size_t i, size_t j, size_t k) const;
  float& At(size_t i, size_t j, size_t k, size_t l);
  float At(size_t i, size_t j, size_t k, size_t l) const;

  /// Reinterprets the storage under a new shape with the same volume.
  void Reshape(std::vector<size_t> shape);

  /// Changes the shape, growing or shrinking the storage as needed. Existing
  /// capacity is reused, so repeated ResizeTo calls with stable shapes do not
  /// allocate. Newly exposed elements are unspecified; contents are NOT
  /// cleared (call Fill(0) when zeros are required).
  void ResizeTo(const std::vector<size_t>& shape);
  void ResizeTo(std::initializer_list<size_t> shape);

  void Fill(float value);

  /// this += alpha * other. Shapes must match.
  void Axpy(float alpha, const Tensor& other);

  /// this *= alpha.
  void Scale(float alpha);

  /// Euclidean norm of the flattened contents.
  double L2Norm() const;

  /// Sum of all entries (double accumulation).
  double Sum() const;

  /// "[2, 3, 4]"-style shape string for diagnostics.
  std::string ShapeString() const;

  friend bool operator==(const Tensor& a, const Tensor& b) {
    return a.shape_ == b.shape_ && a.data_ == b.data_;
  }

 private:
  size_t Offset2(size_t i, size_t j) const;
  size_t Offset3(size_t i, size_t j, size_t k) const;
  size_t Offset4(size_t i, size_t j, size_t k, size_t l) const;

  std::vector<size_t> shape_;
  std::vector<float> data_;
};

/// Element-wise a + b; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Element-wise a - b; shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Dot product of flattened tensors; sizes must match.
double Dot(const Tensor& a, const Tensor& b);

/// Matrix product of rank-2 tensors: [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Packs `lanes` same-shaped example tensors into one lane-SoA tensor of
/// shape [example shape..., lanes], where element e of lane l lands at
/// data[e * lanes + l]. This is the memory layout the batched-lane layer
/// entry points (Layer::ForwardBatchInto) consume: the lane dimension is
/// innermost, so vectorizing across lanes touches contiguous memory.
void PackLanes(const Tensor* const* examples, size_t lanes, Tensor* packed);

/// Extracts lane `lane` of a lane-SoA tensor produced by PackLanes (or by a
/// batched layer) into `example`, dropping the trailing lane dimension.
void UnpackLane(const Tensor& packed, size_t lane, Tensor* example);

/// Copies lanes [0, count) of a raw lane-SoA block of `elems` elements
/// (element e of lane l at src[e * lanes + l]) lane-major into `dst`: lane
/// l's elements land at dst[l * elems + e]. The inverse of PackLanes.
void UnpackLanes(const float* src, size_t elems, size_t lanes, size_t count,
                 float* dst);

}  // namespace dpaudit

#endif  // DPAUDIT_TENSOR_TENSOR_H_
