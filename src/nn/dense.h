// Fully connected layer.

#ifndef DPAUDIT_NN_DENSE_H_
#define DPAUDIT_NN_DENSE_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpaudit {

/// y = W x + b with W of shape [out, in]. Accepts any input tensor whose
/// volume equals `in` (flattens implicitly), so a conv feature map can feed a
/// dense head without an explicit flatten layer.
class Dense : public Layer {
 public:
  Dense(size_t in_features, size_t out_features);

  void ForwardBatchInto(const Tensor& input, size_t lanes,
                        Tensor* output) override;
  void BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                         Tensor* grad_input) override;
  void AppendLaneGrads(std::vector<LaneGradBlock>* blocks) const override;
  std::vector<Tensor*> Params() override { return {&weight_, &bias_}; }
  void Initialize(Rng& rng) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;

  size_t in_features() const { return in_; }
  size_t out_features() const { return out_; }

 private:
  size_t in_;
  size_t out_;
  Tensor weight_;  // [out, in]
  Tensor bias_;    // [out]
  // Cached pointer to the forward input (see the lifetime contract in
  // layer.h), the column factor of the factored weight gradient, and the
  // pack's output gradient, which is the per-lane bias gradient and the
  // row factor.
  const Tensor* last_batch_input_ = nullptr;
  size_t batch_lanes_ = 0;
  std::vector<float> lane_delta_;  // [out, lanes]
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_DENSE_H_
