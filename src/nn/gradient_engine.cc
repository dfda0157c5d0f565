#include "nn/gradient_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace dpaudit {

namespace {

/// True when every input tensor shares inputs[0]'s shape — the precondition
/// for packing them into one lane tensor.
bool HomogeneousShapes(const std::vector<const Tensor*>& inputs) {
  if (inputs.empty()) return true;
  const std::vector<size_t>& shape = inputs[0]->shape();
  for (size_t j = 1; j < inputs.size(); ++j) {
    if (inputs[j]->shape() != shape) return false;
  }
  return true;
}

}  // namespace

GradientEngine::GradientEngine(const Network& architecture, Options options)
    : threads_(options.threads == 0 ? DefaultThreadCount() : options.threads),
      chunk_(std::max<size_t>(1, options.chunk)),
      lanes_(options.batch_lanes == Options::kBatchLanesAuto
                 ? BatchLanesFromEnv()
                 : std::min(options.batch_lanes, kMaxBatchLanes)),
      num_params_(architecture.NumParams()),
      ranges_(architecture.LayerParamRanges()) {
  // A lane count of 1 is just the scalar pass with pack/unpack overhead.
  if (lanes_ == 1 || !architecture.SupportsBatchLanes()) lanes_ = 0;
  // Chunks always hold whole packs so ragged packs only appear at the end of
  // a wave or the dataset (raggedness cannot affect results either way).
  if (lanes_ > 0) {
    chunk_ = ((std::max(chunk_, lanes_) + lanes_ - 1) / lanes_) * lanes_;
  }
  replicas_.reserve(threads_);
  for (size_t t = 0; t < threads_; ++t) {
    replicas_.push_back(architecture.Clone());
  }
  workspaces_.resize(threads_);
  slots_.resize(threads_ == 1 ? std::max<size_t>(1, lanes_)
                              : threads_ * chunk_);
  pack_inputs_.resize(threads_);
  pack_labels_.resize(threads_);
  pack_dsts_.resize(threads_);
  pack_norms_.resize(threads_);
  pad_slots_.resize(threads_);
  // Worker-affine state (per-worker model replicas and workspaces indexed by
  // worker id) needs a dedicated pool with a stable width; the shared pool's
  // width is a process-global setting. One pool per engine, reused across
  // every wave of the training run — not per-call churn.
  if (threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(threads_);  // NOLINT(dpaudit-raw-pool)
  }
}

void GradientEngine::SyncParams(const Network& source) {
  std::vector<float> flat = source.FlatParams();
  DPAUDIT_CHECK_EQ(flat.size(), num_params_);
  for (Network& replica : replicas_) replica.SetFlatParams(flat);
}

GradientEngine::PerExampleGradView GradientEngine::View(
    NormMode mode, const Slot& slot) const {
  if (mode == NormMode::kPerLayer) {
    return {slot.grad.data(), 0.0, slot.norms.data()};
  }
  return {slot.grad.data(), slot.norms[0], nullptr};
}

void GradientEngine::ResizeSlot(NormMode mode, Slot* slot) const {
  slot->grad.resize(num_params_);
  slot->norms.resize(mode == NormMode::kWhole ? 1 : ranges_.size());
}

void GradientEngine::ComputeSlot(size_t worker, const Tensor& input,
                                 size_t label, NormMode mode, Slot* slot) {
  ResizeSlot(mode, slot);
  replicas_[worker].PerExampleGradientTo(input, label, &workspaces_[worker],
                                         slot->grad.data());
  if (mode == NormMode::kWhole) {
    slot->norms[0] = L2Norm(slot->grad.data(), num_params_);
  } else {
    for (size_t r = 0; r < ranges_.size(); ++r) {
      slot->norms[r] =
          L2Norm(slot->grad.data() + ranges_[r].offset, ranges_[r].size);
    }
  }
}

void GradientEngine::ComputePack(size_t worker,
                                 const std::vector<const Tensor*>& inputs,
                                 const size_t* labels, size_t begin_j,
                                 size_t count, NormMode mode, Slot* slots) {
  DPAUDIT_METRIC_DISTRIBUTION("dpaudit_gradient_engine_lane_fill", 0.0, 1.0,
                              16,
                              static_cast<double>(count) /
                                  static_cast<double>(lanes_));
  // A ragged pack must not run the lane kernels at its own width: the fast
  // wrappers pin the lane count, and the runtime-width fallback is slower
  // than the scalar path. Instead, a mostly-full tail is padded to the full
  // width with copies of its last example (a full-width pack costs less than
  // `count` scalar passes once count exceeds ~lanes/2), and a mostly-empty
  // tail runs the scalar path example by example. Padded lanes scatter into
  // a discard slot; lanes never interact, so the real lanes' gradients and
  // norms are bit-identical regardless of which route runs.
  if (count * 2 <= lanes_) {
    for (size_t l = 0; l < count; ++l) {
      ComputeSlot(worker, *inputs[begin_j + l], labels[begin_j + l], mode,
                  &slots[l]);
    }
    return;
  }
  std::vector<const Tensor*>& pack_in = pack_inputs_[worker];
  std::vector<float*>& pack_dst = pack_dsts_[worker];
  std::vector<double*>& pack_norm = pack_norms_[worker];
  pack_in.resize(lanes_);
  pack_dst.resize(lanes_);
  pack_norm.resize(lanes_);
  for (size_t l = 0; l < count; ++l) {
    pack_in[l] = inputs[begin_j + l];
    ResizeSlot(mode, &slots[l]);
    pack_dst[l] = slots[l].grad.data();
    pack_norm[l] = slots[l].norms.data();
  }
  const size_t* pack_labels = labels + begin_j;
  if (count < lanes_) {
    std::vector<size_t>& padded = pack_labels_[worker];
    padded.assign(labels + begin_j, labels + begin_j + count);
    padded.resize(lanes_, padded[count - 1]);
    pack_labels = padded.data();
    Slot& discard = pad_slots_[worker];
    ResizeSlot(mode, &discard);
    for (size_t l = count; l < lanes_; ++l) {
      pack_in[l] = pack_in[count - 1];
      pack_dst[l] = discard.grad.data();
      pack_norm[l] = discard.norms.data();
    }
  }
  replicas_[worker].PerExampleGradientBatchTo(
      pack_in.data(), pack_labels, lanes_, &workspaces_[worker],
      pack_dst.data(), mode, pack_norm.data());
}

void GradientEngine::VisitPerExampleGradients(
    const std::vector<const Tensor*>& inputs, const std::vector<size_t>& labels,
    NormMode mode,
    const std::function<void(size_t, const PerExampleGradView&)>& visit) {
  DPAUDIT_CHECK_EQ(inputs.size(), labels.size());
  const size_t n = inputs.size();
  DPAUDIT_METRIC_COUNT("dpaudit_per_example_gradients_total", n);
  // The lane path packs same-shaped examples; a heterogeneous call (never
  // the case for the paper's fixed-shape datasets) falls back to the scalar
  // path, which is bit-identical anyway.
  const bool use_lanes = lanes_ > 0 && HomogeneousShapes(inputs);
  if (threads_ == 1) {
    if (use_lanes) {
      for (size_t j = 0; j < n; j += lanes_) {
        const size_t count = std::min(lanes_, n - j);
        ComputePack(0, inputs, labels.data(), j, count, mode, slots_.data());
        for (size_t l = 0; l < count; ++l) visit(j + l, View(mode, slots_[l]));
      }
      return;
    }
    Slot& slot = slots_[0];
    for (size_t j = 0; j < n; ++j) {
      ComputeSlot(0, *inputs[j], labels[j], mode, &slot);
      visit(j, View(mode, slot));
    }
    return;
  }
  // Waves of threads * chunk examples: workers claim fixed-size chunks from
  // an atomic cursor and fill the wave's slots, then the calling thread
  // visits the wave in example order. The work-claiming schedule balances
  // load but cannot affect results: gradients are computed independently per
  // example and only the ordered visitation reduces them.
  const size_t wave = slots_.size();
  for (size_t begin = 0; begin < n; begin += wave) {
    const size_t end = std::min(n, begin + wave);
    std::atomic<size_t> next{begin};
    for (size_t t = 0; t < threads_; ++t) {
      pool_->Schedule([this, t, begin, end, mode, use_lanes, &next, &inputs,
                       &labels] {
        for (;;) {
          const size_t chunk_begin = next.fetch_add(chunk_);
          if (chunk_begin >= end) return;
          const size_t chunk_end = std::min(end, chunk_begin + chunk_);
          if (use_lanes) {
            // Chunk size is a multiple of lanes_, so ragged packs only occur
            // against the wave/dataset tail at chunk_end.
            for (size_t j = chunk_begin; j < chunk_end; j += lanes_) {
              const size_t count = std::min(lanes_, chunk_end - j);
              ComputePack(t, inputs, labels.data(), j, count, mode,
                          &slots_[j - begin]);
            }
          } else {
            for (size_t j = chunk_begin; j < chunk_end; ++j) {
              ComputeSlot(t, *inputs[j], labels[j], mode,
                          &slots_[j - begin]);
            }
          }
        }
      });
    }
    pool_->Wait();
    for (size_t j = begin; j < end; ++j) {
      visit(j, View(mode, slots_[j - begin]));
    }
  }
}

void GradientEngine::VisitPerExampleGradients(
    const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
    NormMode mode,
    const std::function<void(size_t, const PerExampleGradView&)>& visit) {
  std::vector<const Tensor*> ptrs(inputs.size());
  for (size_t j = 0; j < inputs.size(); ++j) ptrs[j] = &inputs[j];
  VisitPerExampleGradients(ptrs, labels, mode, visit);
}

std::vector<float> GradientEngine::ClippedGradientSum(
    const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
    double clip_norm, std::vector<double>* per_example_norms) {
  DPAUDIT_CHECK_GT(clip_norm, 0.0);
  std::vector<float> sum(num_params_, 0.0f);
  if (per_example_norms != nullptr) per_example_norms->clear();
  VisitPerExampleGradients(
      inputs, labels, NormMode::kWhole,
      [&](size_t, const PerExampleGradView& view) {
        if (per_example_norms != nullptr) {
          per_example_norms->push_back(view.norm);
        }
        AccumulateScaled(sum.data(), view.grad, num_params_,
                         ClipScale(view.norm, clip_norm));
      });
  return sum;
}

std::vector<float> GradientEngine::PerLayerClippedGradientSum(
    const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
    double clip_norm) {
  DPAUDIT_CHECK_GT(clip_norm, 0.0);
  DPAUDIT_CHECK(!ranges_.empty());
  const double per_layer_clip =
      clip_norm / std::sqrt(static_cast<double>(ranges_.size()));
  std::vector<float> sum(num_params_, 0.0f);
  VisitPerExampleGradients(
      inputs, labels, NormMode::kPerLayer,
      [&](size_t, const PerExampleGradView& view) {
        for (size_t r = 0; r < ranges_.size(); ++r) {
          AccumulateScaled(sum.data() + ranges_[r].offset,
                           view.grad + ranges_[r].offset, ranges_[r].size,
                           ClipScale(view.layer_norms[r], per_layer_clip));
        }
      });
  return sum;
}

}  // namespace dpaudit
