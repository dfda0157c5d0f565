// Batched, parallel per-example gradient clipping engine.
//
// DPSGD needs, at every step, the sum of every record's clipped
// per-example gradient at the current weights — for the audit, two such
// sums, one per neighbouring dataset. Each call is one parallel region on
// the shared pool (util/thread_pool.h) over packs of examples. Every
// participant of the region owns a deep copy of the network plus a reusable
// GradientWorkspace, indexed by its participant index, so participants never
// share layer caches and the steady state performs no per-example heap
// allocation. A participant computes and clips a pack, then hands it to an
// ordered reduction: pack p is added into the sums as soon as packs < p have
// been, by whichever participant holds the reducer turn. A sole participant
// runs inline on the calling thread and, where the kernels allow, finishes
// each pack inside the next pack's norm pass. No caller ever sees a
// per-example gradient; the engine returns the sums and the pre-clip norms.
//
// Packs: a participant pushes B same-shaped examples (B = the engine's lane
// width, DPAUDIT_BATCH_LANES, default 8) through the layers' lane-SoA entry
// points, where each lane keeps its own accumulators. Every pack runs at
// width B; a ragged tail is padded with copies of its last example, whose
// lanes never reach the norms or the sums. The clip stage then reads the
// layers' gradient blocks in place — stored lane-SoA blocks for conv and
// channel-norm, and for dense layers the two factors (output gradient and
// input) of the weight gradient, whose float products it recomputes instead
// of storing. The norm pass runs every lane's chain over those blocks in
// flat order; the accumulate pass walks the pack element by element and adds
// the lanes' terms in example order, so each sum is read and written once
// per pack. Both passes have three bodies — portable, AVX2+FMA and AVX-512
// (all 8 lanes in one zmm) — and the engine runs the highest tier the CPU
// has (ClipStageTier in util/simd.h, read at construction). Every body
// gives each element the same IEEE operations in the same order, so the
// tier never changes a bit.
//
// Determinism contract: a per-example gradient depends only on the
// parameters and the example, never on its pack mates, the lane width, the
// participant that computes it or the order packs finish in, and every
// reduction happens in a fixed order: each norm is one ascending double
// chain over the flat gradient (L2Norm's), and each sum element receives its
// examples' terms float(scale * double(g)) in example order
// (AccumulateScaled's). Results are therefore bit-identical for any thread
// count and any lane width; width 1 (DPAUDIT_BATCH_LANES=1) is the
// reference.

#ifndef DPAUDIT_NN_GRADIENT_ENGINE_H_
#define DPAUDIT_NN_GRADIENT_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/network.h"
#include "tensor/tensor.h"
#include "util/simd.h"

namespace dpaudit {

class GradientEngine {
 public:
  struct Options {
    /// Sentinel for batch_lanes: resolve from DPAUDIT_BATCH_LANES.
    static constexpr size_t kBatchLanesAuto = static_cast<size_t>(-1);

    /// Region width (participants, the caller included); 0 means
    /// DefaultThreadCount(). With one participant the engine runs inline
    /// on the calling thread.
    size_t threads = 0;
    /// Lane width of every pack, >= 1; kBatchLanesAuto reads
    /// DPAUDIT_BATCH_LANES (default 8). Clamped to kMaxBatchLanes.
    /// Bit-identical results for any width.
    size_t batch_lanes = kBatchLanesAuto;
  };

  /// Which norms clip the gradients: the whole gradient's (kWhole) or each
  /// parameterized layer's (kPerLayer).
  using NormMode = GradNormMode;

  /// Flags naming the clipped sums an example is added to.
  static constexpr uint8_t kSumA = 1;
  static constexpr uint8_t kSumB = 2;

  /// What ClipAndSum returns.
  struct ClippedSums {
    std::vector<float> sum_a;  // num_params floats
    std::vector<float> sum_b;  // num_params floats
    /// Pre-clip norms, example-major: one per example for kWhole, one per
    /// param range (LayerParamRanges order) for kPerLayer.
    std::vector<double> norms;
  };

  explicit GradientEngine(const Network& architecture)
      : GradientEngine(architecture, Options()) {}
  GradientEngine(const Network& architecture, Options options);

  GradientEngine(const GradientEngine&) = delete;
  GradientEngine& operator=(const GradientEngine&) = delete;

  size_t num_params() const { return num_params_; }
  size_t threads() const { return threads_; }
  /// Effective lane width after env resolution and clamping.
  size_t batch_lanes() const { return lanes_; }
  /// The clip stage's kernel tier: ClipStageTier() at construction.
  SimdTier simd_tier() const { return tier_; }
  const std::vector<Network::ParamRange>& param_ranges() const {
    return ranges_;
  }

  /// Copies `source`'s parameters into every participant's replica. Call
  /// once per training step, before computing gradients at the new weights.
  void SyncParams(const Network& source);

  /// The clip stage. Clips the gradient of every (inputs[j], labels[j]) —
  /// whole to `clip_norm` for kWhole, each param range to
  /// clip_norm / sqrt(#ranges) for kPerLayer — and adds it, in ascending j,
  /// to each sum its `sums[j]` flags name (kSumA, kSumB, both or neither).
  /// Bit-identical to per-example L2Norm, ClipScale and AccumulateScaled in
  /// example order, for any thread and lane count. Every input must have
  /// inputs[0]'s shape (CHECK).
  ClippedSums ClipAndSum(const std::vector<const Tensor*>& inputs,
                         const std::vector<size_t>& labels,
                         const std::vector<uint8_t>& sums, NormMode mode,
                         double clip_norm);

  /// Sum over the given examples of per-example gradients clipped to L2
  /// norm `clip_norm` (Abadi et al.): g_j * min(1, C / ||g_j||). If
  /// `per_example_norms` is non-null it receives each pre-clip norm.
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

 private:
  /// Where one lane gradient block lives in a PackRecord and in the flat
  /// gradient.
  struct RecordBlock {
    size_t flat;   // offset of the block in the flat gradient
    size_t data;   // offset of the block's factors in PackRecord::data
    size_t rows;   // row factors
    size_t cols;   // column factors
    size_t range;  // LayerParamRanges index
  };

  /// One pack of up to lanes_ consecutive examples after a participant has
  /// computed and normed it: everything the reducer needs to add the pack to
  /// the sums in example order.
  struct PackRecord {
    size_t count = 0;
    /// `data` holds each block's row factors (lane-SoA, lanes_ wide)
    /// followed by its column factors, lane-major (count lanes).
    std::vector<RecordBlock> blocks;
    std::vector<float> data;
    std::vector<double> norms;   // count * norms per example
    std::vector<double> scales;  // parallel to norms
  };

  /// A pack whose accumulate pass has not run yet: its record, its
  /// examples' sum flags and the sums they go into. A sole participant's
  /// next pack finishes it in its norm pass (see ComputeRecord; 8 lanes
  /// with the AVX2+FMA or AVX-512 bodies).
  struct PendingPack {
    const PackRecord* record;
    const uint8_t* sums;
    ClippedSums* out;
  };

  size_t NormsPerExample(NormMode mode) const {
    return mode == NormMode::kWhole ? 1 : ranges_.size();
  }

  /// Computes examples [begin, begin + count) into `record` on
  /// `participant`'s replica: gradients, norms and clip scales. `count` may
  /// be ragged (< lanes_) at the dataset tail; the pack is then padded to
  /// the full width with copies of its last example (padded lanes never
  /// reach the norms or the sums — lanes are independent, so the real lanes
  /// are untouched). A non-null `pending.record` is accumulated during the
  /// norm pass.
  void ComputeRecord(size_t participant,
                     const std::vector<const Tensor*>& inputs,
                     const size_t* labels, size_t begin, size_t count,
                     NormMode mode, double clip, const PendingPack& pending,
                     PackRecord* record);

  /// Adds `record`'s clipped gradients to the sums its examples' flags
  /// name, in example order.
  void Accumulate(const PackRecord& record, const uint8_t* flags,
                  NormMode mode, ClippedSums* out) const;

  /// Accumulate for one block of a record. A non-null `next` (the same
  /// block of the next pack, 8 lanes) has its norm steps run inside the
  /// same loop, continuing the chains in next_sq.
  void AccumulateBlock(const PackRecord& record, size_t index,
                       const uint8_t* flags, NormMode mode, ClippedSums* out,
                       const LaneGradBlock* next, double* next_sq) const;

  size_t threads_;
  size_t lanes_;  // pack width, >= 1
  size_t num_params_;
  std::vector<Network::ParamRange> ranges_;
  SimdTier tier_;  // clip-stage kernel bodies
  std::vector<Network> replicas_;              // one per participant
  std::vector<GradientWorkspace> workspaces_;  // one per participant
  std::vector<PackRecord> records_;  // ring of packs, 2 per participant
  // Per-participant pack argument scratch (input pointers and padded
  // labels), reused across packs so steady state stays allocation-free.
  std::vector<std::vector<const Tensor*>> pack_inputs_;
  std::vector<std::vector<size_t>> pack_labels_;
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_GRADIENT_ENGINE_H_
