// Max pooling.

#ifndef DPAUDIT_NN_POOLING_H_
#define DPAUDIT_NN_POOLING_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpaudit {

/// 2x2-style max pooling with stride equal to pool size, valid mode (a
/// trailing row/column that does not fill a window is dropped, matching
/// common framework defaults). Input [C, H, W] -> [C, H/p, W/p].
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(size_t pool);

  void ForwardBatchInto(const Tensor& input, size_t lanes,
                        Tensor* output) override;
  void BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                         Tensor* grad_input) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<MaxPool2d>(pool_);
  }
  std::string Name() const override;

  size_t pool() const { return pool_; }

 private:
  size_t pool_;
  // Lane state: example-flat argmax per (cell, lane), int32 since the
  // planes here are far below 2^31 elements.
  std::vector<int> lane_argmax_;
  std::vector<size_t> batch_input_shape_;
  size_t batch_lanes_ = 0;
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_POOLING_H_
