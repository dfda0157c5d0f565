// Layer interface for the small neural-network library behind DPSGD.
//
// Every layer has one per-example code path: the *lane* entry points
// (ForwardBatchInto/BackwardBatchInto), which push `lanes` independent
// examples through the layer at once in structure-of-arrays form. A lane
// tensor has the example's shape plus a trailing [lanes] dimension, so
// element e of lane l lives at data[e * lanes + l]. Each lane keeps its own
// accumulators, advancing in one fixed order per output element, so lane l's
// results depend only on lane l's example: they are bit-identical for any
// lane count, and a pack of one (shape + [1]) is the width-1 reference. The
// 8-lane AVX2 kernels are specialisations of the same bodies, not a second
// path. Per-example parameter gradients — the quantity DPSGD clips — are
// the layers' lane gradient blocks (AppendLaneGrads).

#ifndef DPAUDIT_NN_LAYER_H_
#define DPAUDIT_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/env.h"
#include "util/random.h"

namespace dpaudit {

/// One parameter-gradient tensor of a lane pack, as a layer hands it to the
/// clip stage, in factored form: element r * num_cols + c of lane l is the
/// float product rows[r * lanes + l] * cols[c * lanes + l] of two lane-SoA
/// factors. A dense weight gradient is the outer product of the output
/// gradient and the input, so it is never stored: each element is the
/// float product itself, recomputed where it is read. A stored
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

/// Abstract differentiable layer. BackwardBatchInto must be called after
/// ForwardBatchInto on the same lane pack.
///
/// Outputs go into caller-provided tensors whose storage is reused: once
/// shapes have stabilized (after the first pack), a forward/backward pass
/// performs no heap allocation. The output tensor must not alias the input
/// tensor.
///
/// Input lifetime: the lane tensor passed to ForwardBatchInto must remain
/// valid and unmodified until the matching backward call and, for layers
/// whose gradient blocks point into it (dense), until the blocks have been
/// read. Layers cache a pointer to it instead of copying; Network's
/// GradientWorkspace keeps every layer's input alive through the backward
/// sweep.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for `lanes` examples packed in lane-SoA form
  /// (input shape = example shape + [lanes]) into `*output` (lane-SoA, must
  /// not alias `input`). Lane l's output depends only on lane l's example.
  virtual void ForwardBatchInto(const Tensor& input, size_t lanes,
                                Tensor* output) = 0;

  /// Given dLoss/dOutput for the lane pack last passed through
  /// ForwardBatchInto, leaves the per-lane parameter gradients in the
  /// layer's lane buffers, or factored over them (read back via
  /// AppendLaneGrads), and writes dLoss/dInput into `*grad_input` (must not
  /// alias `grad_output`). A null `grad_input` skips computing dLoss/dInput
  /// — legal only for the first layer of a network, where it would be
  /// discarded.
  virtual void BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                                 Tensor* grad_input) = 0;

  /// Appends the per-lane parameter gradients of the last BackwardBatchInto,
  /// one block per Params() tensor in Params() order; block k has
  /// Params()[k]->size() elements per lane. The blocks point into the layer
  /// and its cached forward input, so they stay valid until the next lane
  /// pass. Appends nothing for parameterless layers.
  virtual void AppendLaneGrads(std::vector<LaneGradBlock>* blocks) const {
    (void)blocks;
  }

  /// Learnable parameter tensors (possibly empty). Pointers remain valid for
  /// the lifetime of the layer.
  virtual std::vector<Tensor*> Params() { return {}; }

  /// Draws initial parameter values; default is a no-op for stateless layers.
  virtual void Initialize(Rng&) {}

  /// Deep copy, including current parameter values.
  virtual std::unique_ptr<Layer> Clone() const = 0;

  /// Short layer name for diagnostics, e.g. "dense(128->100)".
  virtual std::string Name() const = 0;
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_LAYER_H_
