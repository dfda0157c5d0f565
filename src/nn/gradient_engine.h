// Batched, parallel per-example gradient engine.
//
// DPSGD needs, at every step, the clipped per-example gradient of every
// record at the current weights. The engine computes those gradients across a
// fixed set of worker replicas (each worker owns a deep copy of the network
// plus a reusable GradientWorkspace, so workers never share layer caches and
// the steady state performs no per-example heap allocation) and hands them to
// the caller ON THE CALLING THREAD in ascending example order.
//
// Determinism contract: a per-example gradient depends only on the parameters
// and the example, never on which worker computes it or in what order, and
// every reduction (norms, clipped sums) happens sequentially in example order
// on the calling thread. Results are therefore bit-identical for any thread
// count, including the sequential reference implementation in Network.
//
// The batched lane path (DPAUDIT_BATCH_LANES, default 8) extends the same
// contract to lane packs: workers claim a pack of up to B same-shaped
// examples and push them through the layers' lane-SoA entry points, where
// each lane keeps its own accumulators advancing in the scalar path's
// ascending order. A lane's gradient therefore never depends on its pack
// mates, the pack width, or ragged tail packs — bit-identical to the scalar
// path for any B and thread count.

#ifndef DPAUDIT_NN_GRADIENT_ENGINE_H_
#define DPAUDIT_NN_GRADIENT_ENGINE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "nn/network.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace dpaudit {

class GradientEngine {
 public:
  struct Options {
    /// Sentinel for batch_lanes: resolve from DPAUDIT_BATCH_LANES.
    static constexpr size_t kBatchLanesAuto = static_cast<size_t>(-1);

    /// Worker count; 0 means DefaultThreadCount(). With one worker the
    /// engine runs inline on the calling thread with a single slot buffer.
    size_t threads = 0;
    /// Examples claimed per unit of scheduled work. Parallel mode buffers
    /// threads * chunk flat gradients at a time. Raised to batch_lanes when
    /// smaller, so chunks always hold whole packs.
    size_t chunk = 16;
    /// Lane count for the batched forward/backward path: 0 selects the
    /// legacy one-example-at-a-time path, kBatchLanesAuto reads
    /// DPAUDIT_BATCH_LANES (default 8). Clamped to kMaxBatchLanes; forced
    /// to 0 when the architecture has a layer without lane support.
    /// Bit-identical results either way.
    size_t batch_lanes = kBatchLanesAuto;
  };

  /// Which norms the workers precompute alongside each gradient. Norm chains
  /// are long serial double accumulations, so they are evaluated on the
  /// workers (where they parallelize across examples) rather than in the
  /// visitor; the lane path also runs a pack's chains side by side, in
  /// lanes, while it unpacks the pack's gradients.
  using NormMode = GradNormMode;

  /// What a visitor sees for one example.
  struct PerExampleGradView {
    const float* grad;          // flat gradient, num_params() floats
    double norm;                // whole-gradient norm (NormMode::kWhole)
    const double* layer_norms;  // per-range norms (NormMode::kPerLayer)
  };

  explicit GradientEngine(const Network& architecture)
      : GradientEngine(architecture, Options()) {}
  GradientEngine(const Network& architecture, Options options);

  GradientEngine(const GradientEngine&) = delete;
  GradientEngine& operator=(const GradientEngine&) = delete;

  size_t num_params() const { return num_params_; }
  size_t threads() const { return threads_; }
  /// Effective lane count after env resolution and architecture gating
  /// (0 = scalar path).
  size_t batch_lanes() const { return lanes_; }
  const std::vector<Network::ParamRange>& param_ranges() const {
    return ranges_;
  }

  /// Copies `source`'s parameters into every worker replica. Call once per
  /// training step, before computing gradients at the new weights.
  void SyncParams(const Network& source);

  /// Computes the per-example gradient of every (inputs[j], labels[j]) and
  /// invokes visit(j, view) on the calling thread in ascending j. The view's
  /// pointers are only valid during that invocation.
  void VisitPerExampleGradients(
      const std::vector<const Tensor*>& inputs,
      const std::vector<size_t>& labels, NormMode mode,
      const std::function<void(size_t, const PerExampleGradView&)>& visit);

  void VisitPerExampleGradients(
      const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
      NormMode mode,
      const std::function<void(size_t, const PerExampleGradView&)>& visit);

  /// Drop-in equivalents of the Network methods of the same names,
  /// bit-identical to them for any thread count.
  std::vector<float> ClippedGradientSum(
      const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
      double clip_norm, std::vector<double>* per_example_norms = nullptr);

  std::vector<float> PerLayerClippedGradientSum(
      const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
      double clip_norm);

 private:
  struct Slot {
    std::vector<float> grad;
    std::vector<double> norms;  // 1 (kWhole) or one per param range
  };

  /// The view a visitor sees of a computed slot.
  PerExampleGradView View(NormMode mode, const Slot& slot) const;

  /// Sizes `slot`'s buffers for `mode`.
  void ResizeSlot(NormMode mode, Slot* slot) const;

  /// Computes example j's gradient and norms into `slot` using worker w's
  /// replica and workspace.
  void ComputeSlot(size_t worker, const Tensor& input, size_t label,
                   NormMode mode, Slot* slot);

  /// Computes the gradients of examples [begin_j, begin_j + count) as one
  /// lane pack into slots[0..count), norms included. `count` may be ragged
  /// (< lanes_) at chunk and dataset tails: a mostly-full tail is padded to
  /// the full lane width with copies of its last example (padded lanes land
  /// in a scratch gradient and are discarded — lanes are independent, so the
  /// real lanes are untouched), while a mostly-empty tail runs the scalar
  /// path. Bit-identical either way; the split only picks the cheaper route.
  void ComputePack(size_t worker, const std::vector<const Tensor*>& inputs,
                   const size_t* labels, size_t begin_j, size_t count,
                   NormMode mode, Slot* slots);

  size_t threads_;
  size_t chunk_;
  size_t lanes_;  // 0 = scalar path
  size_t num_params_;
  std::vector<Network::ParamRange> ranges_;
  std::vector<Network> replicas_;             // one per worker
  std::vector<GradientWorkspace> workspaces_; // one per worker
  std::vector<Slot> slots_;                   // threads * chunk wave buffers
  // Per-worker pack argument scratch (input pointers, labels, gradient and
  // norm destination pointers, and the discard slot that padded lanes
  // scatter into), reused across packs so steady state stays
  // allocation-free.
  std::vector<std::vector<const Tensor*>> pack_inputs_;
  std::vector<std::vector<size_t>> pack_labels_;
  std::vector<std::vector<float*>> pack_dsts_;
  std::vector<std::vector<double*>> pack_norms_;
  std::vector<Slot> pad_slots_;
  std::unique_ptr<ThreadPool> pool_;          // absent when threads_ == 1
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_GRADIENT_ENGINE_H_
