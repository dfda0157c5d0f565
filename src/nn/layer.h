// Layer interface for the small neural-network library behind DPSGD.
//
// Layers process ONE example at a time through ForwardInto/BackwardInto (no
// batch dimension). This makes per-example gradients — the quantity DPSGD
// clips — the natural output of a single backward pass. For throughput,
// layers may additionally implement the *batched lane* entry points
// (ForwardBatchInto/BackwardBatchInto), which push `lanes` independent
// examples through the layer at once in structure-of-arrays form: a lane
// tensor has the example's shape plus a trailing [lanes] dimension, so
// element e of lane l lives at data[e * lanes + l]. Each lane keeps its own
// accumulator and sums in the same ascending order as the scalar path, so
// per-lane results are bit-identical to per-example ForwardInto/BackwardInto
// for any lane count.

#ifndef DPAUDIT_NN_LAYER_H_
#define DPAUDIT_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/random.h"

namespace dpaudit {

/// One parameter-gradient tensor of a lane pack, as a layer hands it to the
/// clip stage, in factored form: element r * num_cols + c of lane l is the
/// float product rows[r * lanes + l] * cols[c * lanes + l] of two lane-SoA
/// factors. A dense weight gradient is the outer product of the output
/// gradient and the input, so it is never stored, and recomputing each
/// product gives exactly the element the scalar path stores. A stored
/// lane-SoA block (conv, channel-norm, biases) is one row with a unit row
/// factor, since 1.0f * g == g for every float g.
struct LaneGradBlock {
  const float* rows;
  size_t num_rows;
  const float* cols;
  size_t num_cols;

  size_t size() const { return num_rows * num_cols; }

  /// A stored block of `elems` elements per lane.
  static LaneGradBlock Stored(const float* data, size_t elems) {
    static const std::vector<float> ones(kMaxBatchLanes, 1.0f);
    return {ones.data(), 1, data, elems};
  }
};

/// Abstract differentiable layer. Backward must be called after Forward on
/// the same example; parameter gradients accumulate across calls until
/// ZeroGrads().
///
/// Layers implement the Into forms, which write into caller-provided output
/// tensors and reuse their storage: once shapes have stabilized (after the
/// first example), a forward/backward pass performs no heap allocation. The
/// output tensor must not alias the input tensor.
///
/// Input lifetime: the `input` tensor passed to ForwardInto (and the lane
/// tensor passed to ForwardBatchInto) must remain valid and unmodified until
/// the matching backward call. Layers cache a pointer to it instead of
/// copying; Network's GradientWorkspace keeps every layer's input alive
/// through the backward sweep.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for one example into `*output` (resized as
  /// needed; must not alias `input`).
  virtual void ForwardInto(const Tensor& input, Tensor* output) = 0;

  /// Given dLoss/dOutput for the example last passed through the forward
  /// pass, accumulates dLoss/dParams into the gradient tensors and writes
  /// dLoss/dInput into `*grad_input` (must not alias `grad_output`).
  virtual void BackwardInto(const Tensor& grad_output, Tensor* grad_input) = 0;

  /// True when the layer implements the batched lane entry points below.
  virtual bool SupportsBatchLanes() const { return false; }

  /// Computes the layer output for `lanes` examples packed in lane-SoA form
  /// (input shape = example shape + [lanes]) into `*output` (lane-SoA, must
  /// not alias `input`). Lane l's output is bit-identical to ForwardInto on
  /// lane l's example alone.
  virtual void ForwardBatchInto(const Tensor& input, size_t lanes,
                                Tensor* output) {
    (void)input;
    (void)lanes;
    (void)output;
    DPAUDIT_CHECK(false) << Name() << " does not implement batch lanes";
  }

  /// Batched counterpart of BackwardInto over the lane pack last passed
  /// through ForwardBatchInto. Per-lane parameter gradients are left in the
  /// layer's lane buffers, or factored over them (read back via
  /// AppendLaneGrads), NOT accumulated into Grads(). A null `grad_input`
  /// skips computing dLoss/dInput — legal only for the first layer of a
  /// network, where it would be discarded.
  virtual void BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                                 Tensor* grad_input) {
    (void)grad_output;
    (void)lanes;
    (void)grad_input;
    DPAUDIT_CHECK(false) << Name() << " does not implement batch lanes";
  }

  /// Appends the per-lane parameter gradients of the last BackwardBatchInto,
  /// one block per Grads() tensor in Grads() order; block k has
  /// Grads()[k]->size() elements per lane. The blocks point into the layer
  /// and its cached forward input, so they stay valid until the next lane
  /// pass. Appends nothing for parameterless layers.
  virtual void AppendLaneGrads(std::vector<LaneGradBlock>* blocks) const {
    (void)blocks;
  }

  /// Allocating conveniences over the Into forms. The caller owns `input`
  /// and must keep it alive until any subsequent Backward (see the input
  /// lifetime note above).
  Tensor Forward(const Tensor& input) {
    Tensor output;
    ForwardInto(input, &output);
    return output;
  }
  Tensor Backward(const Tensor& grad_output) {
    Tensor grad_input;
    BackwardInto(grad_output, &grad_input);
    return grad_input;
  }

  /// Learnable parameter tensors (possibly empty). Pointers remain valid for
  /// the lifetime of the layer.
  virtual std::vector<Tensor*> Params() { return {}; }

  /// Gradient tensors, parallel to Params().
  virtual std::vector<Tensor*> Grads() { return {}; }

  /// Resets accumulated parameter gradients to zero.
  void ZeroGrads() {
    for (Tensor* g : Grads()) g->Fill(0.0f);
  }

  /// Draws initial parameter values; default is a no-op for stateless layers.
  virtual void Initialize(Rng&) {}

  /// Deep copy, including current parameter values.
  virtual std::unique_ptr<Layer> Clone() const = 0;

  /// Short layer name for diagnostics, e.g. "dense(128->100)".
  virtual std::string Name() const = 0;
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_LAYER_H_
