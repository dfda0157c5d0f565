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

  void ForwardBatchInto(const Tensor& input, size_t lanes,
                        Tensor* output) override;
  void BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                         Tensor* grad_input) override;
  void AppendLaneGrads(std::vector<LaneGradBlock>* blocks) const override;
  std::vector<Tensor*> Params() override { return {&gamma_, &beta_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;

  double epsilon() const { return epsilon_; }

 private:
  size_t channels_;
  double epsilon_;
  Tensor gamma_;  // [C]
  Tensor beta_;   // [C]
  // Lane state: normalized values, per-(channel, lane) statistics and
  // per-lane parameter gradients, all lane-SoA.
  Tensor lane_normalized_;
  std::vector<double> lane_mean_;     // [C, lanes]
  std::vector<double> lane_inv_std_;  // [C, lanes]
  std::vector<float> lane_dgamma_;    // [C, lanes]
  std::vector<float> lane_dbeta_;     // [C, lanes]
  size_t batch_lanes_ = 0;
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_CHANNEL_NORM_H_
