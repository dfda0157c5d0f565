// 2D convolution (valid padding, stride 1).

#ifndef DPAUDIT_NN_CONV2D_H_
#define DPAUDIT_NN_CONV2D_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpaudit {

/// Convolves a [C, H, W] input with `filters` kernels of size
/// [C, kernel, kernel], producing [F, H-k+1, W-k+1]. Direct (non-im2col)
/// loops: the paper's nets are small enough that clarity wins.
class Conv2d : public Layer {
 public:
  Conv2d(size_t in_channels, size_t out_channels, size_t kernel);

  void ForwardBatchInto(const Tensor& input, size_t lanes,
                        Tensor* output) override;
  void BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                         Tensor* grad_input) override;
  void AppendLaneGrads(std::vector<LaneGradBlock>* blocks) const override;
  std::vector<Tensor*> Params() override { return {&weight_, &bias_}; }
  void Initialize(Rng& rng) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;

 private:
  size_t in_channels_;
  size_t out_channels_;
  size_t kernel_;
  Tensor weight_;  // [F, C, k, k]
  Tensor bias_;    // [F]
  // Double-widened copies of one row tile of the input and grad-output
  // planes for the weight-gradient pass (widening is exact, so sums are
  // unchanged).
  std::vector<double> in_pd_;
  std::vector<double> g_pd_;
  // Lane state: the cached forward input (see the lifetime contract in
  // layer.h), per-lane parameter gradients in lane-SoA form, and the double
  // weight-gradient accumulators the pass carries across row tiles.
  const Tensor* last_batch_input_ = nullptr;  // [C, H, W, lanes]
  size_t batch_lanes_ = 0;
  std::vector<float> lane_dweight_;  // [F * C * k * k, lanes]
  std::vector<float> lane_dbias_;    // [F, lanes]
  std::vector<double> lane_wacc_;    // [F * C * k * k, lanes]
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_CONV2D_H_
