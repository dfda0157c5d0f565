// Per-example channel normalization with learned scale and shift.
//
// The paper's MNIST network uses batch normalization. Batch normalization
// couples examples within a batch, which makes "the per-example gradient" —
// the quantity DPSGD clips — ill-defined. Following standard practice in the
// DP-SGD literature (replace BN with group/instance normalization), we
// normalize each example's channels over their spatial extent using that
// example's own statistics. The learned per-channel affine (gamma, beta)
// parameters and the regularizing effect are preserved; examples stay
// independent, so per-example clipping is exact. Recorded as a substitution
// in DESIGN.md.

#ifndef DPAUDIT_NN_CHANNEL_NORM_H_
#define DPAUDIT_NN_CHANNEL_NORM_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpaudit {

/// Instance normalization: for input [C, H, W], each channel c is normalized
/// to zero mean / unit variance over its H*W values, then scaled by gamma_c
/// and shifted by beta_c.
class ChannelNorm : public Layer {
 public:
  explicit ChannelNorm(size_t channels, double epsilon = 1e-5);

  void ForwardInto(const Tensor& input, Tensor* output) override;
  void BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  bool SupportsBatchLanes() const override { return true; }
  void ForwardBatchInto(const Tensor& input, size_t lanes,
                        Tensor* output) override;
  void BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                         Tensor* grad_input) override;
  void AppendLaneGrads(std::vector<LaneGradBlock>* blocks) const override;
  std::vector<Tensor*> Params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> Grads() override { return {&dgamma_, &dbeta_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;

 private:
  size_t channels_;
  double epsilon_;
  Tensor gamma_;  // [C]
  Tensor beta_;   // [C]
  Tensor dgamma_;
  Tensor dbeta_;
  // Forward-pass cache for Backward.
  Tensor normalized_;            // x_hat, same shape as input
  std::vector<double> inv_std_;  // per channel
  // Per-channel accumulators for the statistics passes. Channels are
  // accumulated interleaved (all channels advance one spatial position per
  // iteration) so the C independent summation chains overlap in the FP
  // pipeline; each chain still adds its values in ascending spatial order.
  std::vector<double> mean_;
  std::vector<double> var_;
  std::vector<double> sum_g_;
  std::vector<double> sum_gx_;
  // Batched lane state: per-(channel, lane) statistics and per-lane
  // parameter gradients, all lane-SoA.
  Tensor lane_normalized_;
  std::vector<double> lane_mean_;     // [C, lanes]
  std::vector<double> lane_inv_std_;  // [C, lanes]
  std::vector<float> lane_dgamma_;    // [C, lanes]
  std::vector<float> lane_dbeta_;     // [C, lanes]
  size_t batch_lanes_ = 0;
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_CHANNEL_NORM_H_
