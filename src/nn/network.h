// Sequential network container with the per-example-gradient operations that
// DPSGD and the DP adversary need: flattened parameter access, per-example
// clipped gradients, and clipped batch-gradient sums.

#ifndef DPAUDIT_NN_NETWORK_H_
#define DPAUDIT_NN_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace dpaudit {

/// Reusable scratch buffers for one forward/backward pass. After the first
/// example has sized the buffers, a per-example gradient computation performs
/// no heap allocation. Each concurrent computation needs its own workspace
/// (and its own Network replica, since layers cache activations).
///
/// Activations are kept one-buffer-per-layer (not ping-ponged): layer i's
/// input — `acts[i-1]`, or the caller's input tensor for layer 0 — stays
/// valid and unmodified through the backward sweep, which is what lets
/// layers cache a pointer to their input instead of deep-copying it (see the
/// lifetime contract in layer.h).
struct GradientWorkspace {
  std::vector<Tensor> acts;  // forward output of each layer (scalar path)
  Tensor grad_a, grad_b;     // backward gradient ping-pong buffers
  std::vector<float> grad;   // flat per-example gradient (NumParams floats)
  // Batched lane path: the packed lane input and per-layer lane activations
  // (which also back the dense layers' factored weight gradients), then the
  // pack's parameter-gradient blocks in flat gradient order, each with the
  // index of its LayerParamRanges range. Refreshed every pack.
  Tensor lane_input;
  std::vector<Tensor> lane_acts;
  std::vector<LaneGradBlock> lane_grads;
  std::vector<size_t> lane_grad_ranges;
};

/// Which L2 norms of a per-example gradient are computed. Every norm is
/// L2Norm over its slice of the flat gradient — one ascending double
/// accumulation of squared floats — however it is evaluated.
enum class GradNormMode {
  kWhole,     // pre-clip L2 norm of the whole flat gradient
  kPerLayer,  // one norm per parameterized layer (LayerParamRanges order)
};

/// A stack of layers ending in logits (the softmax is fused into the loss).
/// Move-only (layers hold state); use Clone() for deep copies.
class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Appends a layer; returns *this for builder-style chaining.
  Network& Add(std::unique_ptr<Layer> layer);

  /// Draws initial parameters for every layer.
  void Initialize(Rng& rng);

  /// Deep copy including current parameter values.
  Network Clone() const;

  size_t num_layers() const { return layers_.size(); }
  const Layer& layer(size_t i) const { return *layers_[i]; }

  /// Total number of scalar parameters.
  size_t NumParams() const;

  /// Runs the example through all layers and returns the logits.
  Tensor Forward(const Tensor& input);

  /// Cross-entropy loss of one example (no gradient side effects beyond the
  /// layer forward caches).
  double ExampleLoss(const Tensor& input, size_t label);

  /// argmax class for one example.
  size_t Predict(const Tensor& input);

  /// Fraction of (inputs[i], labels[i]) classified correctly.
  double Accuracy(const std::vector<Tensor>& inputs,
                  const std::vector<size_t>& labels);

  /// Gradient of the cross-entropy loss of ONE example with respect to all
  /// parameters, flattened in layer order. Does not disturb accumulated
  /// layer gradients beyond overwriting them.
  std::vector<float> PerExampleGradient(const Tensor& input, size_t label);

  /// Allocation-free form of PerExampleGradient: runs the pass through the
  /// workspace buffers, leaves the flat gradient in `ws->grad`, and returns
  /// the example loss.
  double PerExampleGradientInto(const Tensor& input, size_t label,
                                GradientWorkspace* ws);

  /// Like PerExampleGradientInto but writes the flat gradient into `dst`
  /// (NumParams floats) instead of `ws->grad`, for callers that own the
  /// destination buffer (e.g. the gradient engine's scalar route).
  double PerExampleGradientTo(const Tensor& input, size_t label,
                              GradientWorkspace* ws, float* dst);

  /// True when every layer implements the batched lane entry points, i.e.
  /// LaneGradientsInto may be used on this architecture.
  bool SupportsBatchLanes() const;

  /// Batched forward/backward: packs `lanes` same-shaped examples into one
  /// lane-SoA pass through the whole stack and leaves the pack's per-lane
  /// parameter gradients in ws->lane_grads / ws->lane_grad_ranges. Lane l's
  /// gradient, read element by element from the blocks, is bit-identical to
  /// PerExampleGradientTo on that example alone, for any lane count. The
  /// blocks stay valid until the next lane pass on this network and
  /// workspace. Requires SupportsBatchLanes().
  void LaneGradientsInto(const Tensor* const* inputs, const size_t* labels,
                         size_t lanes, GradientWorkspace* ws);

  /// Sum over the given examples of per-example gradients clipped to L2 norm
  /// `clip_norm` (Abadi et al.): g_j * min(1, C / ||g_j||). Returns the flat
  /// sum; if `per_example_norms` is non-null it receives each pre-clip norm.
  std::vector<float> ClippedGradientSum(
      const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
      double clip_norm, std::vector<double>* per_example_norms = nullptr);

  /// Per-layer clipping (Thakkar et al., the paper's Section 7 remark about
  /// "setting C differently for each layer"): each parameterized layer's
  /// slice of the per-example gradient is clipped to C / sqrt(L) where L is
  /// the number of parameterized layers, so the whole clipped gradient still
  /// has norm at most C and the global sensitivity analysis is unchanged.
  std::vector<float> PerLayerClippedGradientSum(
      const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
      double clip_norm);

  /// Flat [offset, size) ranges of each parameterized layer within the
  /// flattened parameter/gradient vectors (layers without parameters are
  /// omitted).
  struct ParamRange {
    size_t offset;
    size_t size;
  };
  std::vector<ParamRange> LayerParamRanges() const;

  /// Current parameters flattened in layer order.
  std::vector<float> FlatParams() const;

  /// Overwrites all parameters from a flat vector (size must match).
  void SetFlatParams(const std::vector<float>& flat);

  /// theta <- theta - lr * flat_gradient. Size must equal NumParams().
  void ApplyGradientStep(const std::vector<float>& flat_gradient, double lr);

  /// "conv2d(1->4, k=3) -> relu -> ..." summary.
  std::string Describe() const;

 private:
  void ZeroGrads();

  /// Copies the accumulated layer gradients, flattened in layer order, into
  /// `dst` (NumParams floats).
  void FlatGradsTo(float* dst) const;

  std::vector<std::unique_ptr<Layer>> layers_;
  /// Scratch for the sequential per-example-gradient entry points; lets the
  /// public convenience methods run allocation-free at steady state.
  GradientWorkspace scratch_;
};

/// The paper's MNIST architecture (Section 6.2): two 3x3 conv blocks with
/// normalization and 2x2 max pooling, then a 10-way softmax head. Filter
/// counts (4, 8) are chosen small for CPU experiment throughput; the paper
/// does not specify them.
Network BuildMnistNetwork(size_t image_size = 28, size_t conv1_filters = 4,
                          size_t conv2_filters = 8, size_t num_classes = 10);

/// The paper's Purchase-100 architecture (Section 6.2): 600-d input, one
/// 128-unit ReLU hidden layer, 100-way softmax head.
Network BuildPurchaseNetwork(size_t input_features = 600,
                             size_t hidden_units = 128,
                             size_t num_classes = 100);

}  // namespace dpaudit

#endif  // DPAUDIT_NN_NETWORK_H_
