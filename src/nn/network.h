// Sequential network container with the per-example-gradient operations that
// DPSGD and the DP adversary need: flattened parameter access and lane
// passes that leave every example's parameter gradient in the layers' lane
// gradient blocks. Clipping and summing those gradients is the gradient
// engine's job (nn/gradient_engine.h).

#ifndef DPAUDIT_NN_NETWORK_H_
#define DPAUDIT_NN_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace dpaudit {

/// Reusable scratch buffers for one lane pass. After the first pack has
/// sized the buffers, a forward/backward pass performs no heap allocation.
/// Each concurrent computation needs its own workspace (and its own Network
/// replica, since layers cache activations).
///
/// Activations are kept one-buffer-per-layer (not ping-ponged): layer i's
/// input — `lane_acts[i-1]`, or `lane_input` for layer 0 — stays valid and
/// unmodified through the backward sweep, which is what lets layers cache a
/// pointer to their input instead of deep-copying it (see the lifetime
/// contract in layer.h). The dense layers' factored weight gradients point
/// into these buffers too.
struct GradientWorkspace {
  Tensor lane_input;              // the packed lane input
  std::vector<Tensor> lane_acts;  // lane output of each layer
  Tensor grad_a, grad_b;          // backward gradient ping-pong buffers
  // The pack's parameter-gradient blocks in flat gradient order, each with
  // the index of its LayerParamRanges range. Refreshed every pack.
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

  /// Runs the example through all layers (a lane pass over a pack of one)
  /// and returns the logits.
  Tensor Forward(const Tensor& input);

  /// Cross-entropy loss of one example (no gradient side effects beyond the
  /// layer forward caches).
  double ExampleLoss(const Tensor& input, size_t label);

  /// argmax class for one example.
  size_t Predict(const Tensor& input);

  /// Logits of every input, in input order: the one batched inference pass.
  /// Runs packs of kDefaultBatchLanes same-shaped examples; Forward on each
  /// input alone gives bit-identical logits.
  std::vector<Tensor> Logits(const std::vector<Tensor>& inputs);

  /// argmax class of every input, in input order (from Logits); Predict on
  /// each input alone gives the same classes.
  std::vector<size_t> Predictions(const std::vector<Tensor>& inputs);

  /// Fraction of (inputs[i], labels[i]) classified correctly.
  double Accuracy(const std::vector<Tensor>& inputs,
                  const std::vector<size_t>& labels);

  /// Gradient of the cross-entropy loss of ONE example with respect to all
  /// parameters, flattened in layer order: a lane pass over a pack of one.
  std::vector<float> PerExampleGradient(const Tensor& input, size_t label);

  /// Lane forward/backward: packs `lanes` same-shaped examples into one
  /// lane-SoA pass through the whole stack and leaves the pack's per-lane
  /// parameter gradients in ws->lane_grads / ws->lane_grad_ranges. Lane l's
  /// gradient, read element by element from the blocks, depends only on
  /// lane l's example: it is bit-identical for any lane count. The blocks
  /// stay valid until the next lane pass on this network and workspace.
  void LaneGradientsInto(const Tensor* const* inputs, const size_t* labels,
                         size_t lanes, GradientWorkspace* ws);

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
  /// Packs `lanes` inputs and runs the forward sweep; returns the lane
  /// logits ([classes, lanes]), which live in `ws`.
  const Tensor& ForwardLanes(const Tensor* const* inputs, size_t lanes,
                             GradientWorkspace* ws);

  std::vector<std::unique_ptr<Layer>> layers_;
  /// Scratch for the single-example conveniences; lets them run
  /// allocation-free at steady state.
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
