#include "core/neighbor_sums.h"

#include <cmath>
#include <cstdint>

#include "nn/network.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace dpaudit {

NeighborOverlap AnalyzeNeighborOverlap(const Dataset& d, const Dataset& d_prime,
                                       NeighborMode mode) {
  NeighborOverlap overlap;
  if (mode == NeighborMode::kBounded) {
    if (d.size() != d_prime.size()) return overlap;
    size_t mismatches = 0;
    for (size_t j = 0; j < d.size(); ++j) {
      if (d.labels[j] != d_prime.labels[j] ||
          !(d.inputs[j] == d_prime.inputs[j])) {
        overlap.diff_index = j;
        if (++mismatches > 1) return overlap;  // sharable stays false
      }
    }
    if (mismatches == 0) overlap.diff_index = 0;
    overlap.sharable = true;
    return overlap;
  }
  // Unbounded: D' must equal D with one record removed. Find the first
  // position where they disagree; everything after it in D' must match D
  // shifted by one.
  if (d.size() != d_prime.size() + 1) return overlap;
  size_t k = d_prime.size();
  for (size_t j = 0; j < d_prime.size(); ++j) {
    if (d.labels[j] != d_prime.labels[j] ||
        !(d.inputs[j] == d_prime.inputs[j])) {
      k = j;
      break;
    }
  }
  for (size_t j = k; j < d_prime.size(); ++j) {
    if (d.labels[j + 1] != d_prime.labels[j] ||
        !(d.inputs[j + 1] == d_prime.inputs[j])) {
      return overlap;
    }
  }
  overlap.diff_index = k;
  overlap.sharable = true;
  return overlap;
}

NeighborSums ComputeClippedNeighborSums(GradientEngine& engine,
                                        const Dataset& d,
                                        const Dataset& d_prime,
                                        const NeighborOverlap& overlap,
                                        NeighborMode mode, double clip_norm,
                                        bool per_layer) {
  DPAUDIT_CHECK(overlap.sharable);
  DPAUDIT_CHECK_GT(clip_norm, 0.0);
  const size_t num_params = engine.num_params();
  const std::vector<Network::ParamRange>& ranges = engine.param_ranges();
  const double per_layer_clip =
      per_layer ? clip_norm / std::sqrt(static_cast<double>(ranges.size()))
                : 0.0;

  // Union slot list plus per-slot membership. Bounded inserts d'_k directly
  // after d_k; unbounded's union is D itself.
  const size_t k = overlap.diff_index;
  std::vector<const Tensor*> inputs;
  std::vector<size_t> labels;
  std::vector<uint8_t> in_d;
  std::vector<uint8_t> in_dprime;
  const size_t union_size =
      mode == NeighborMode::kBounded ? d.size() + 1 : d.size();
  inputs.reserve(union_size);
  labels.reserve(union_size);
  in_d.reserve(union_size);
  in_dprime.reserve(union_size);
  for (size_t j = 0; j < d.size(); ++j) {
    inputs.push_back(&d.inputs[j]);
    labels.push_back(d.labels[j]);
    if (mode == NeighborMode::kBounded) {
      in_d.push_back(1);
      in_dprime.push_back(j == k ? 0 : 1);
      if (j == k) {
        inputs.push_back(&d_prime.inputs[k]);
        labels.push_back(d_prime.labels[k]);
        in_d.push_back(0);
        in_dprime.push_back(1);
      }
    } else {
      in_d.push_back(1);
      in_dprime.push_back(j == k ? 0 : 1);
    }
  }

  NeighborSums out;
  out.sum_d.assign(num_params, 0.0f);
  out.sum_dprime.assign(num_params, 0.0f);
  if (!per_layer) {
    out.norms_d.reserve(d.size());
    out.norms_dprime.reserve(d_prime.size());
  }

  // A record in both datasets is clipped once and added to both sums in one
  // pass over its gradient (AccumulateScaledPair); each sum still receives
  // the same rounded terms in the same example order as two separate passes.
  // A null `b` accumulates into `a` alone.
  auto accumulate = [&](float* a, float* b, const float* g, size_t n,
                        double scale) {
    if (b == nullptr) {
      AccumulateScaled(a, g, n, scale);
    } else {
      AccumulateScaledPair(a, b, g, n, scale);
    }
  };

  engine.VisitPerExampleGradients(
      inputs, labels,
      per_layer ? GradientEngine::NormMode::kPerLayer
                : GradientEngine::NormMode::kWhole,
      [&](size_t j, const GradientEngine::PerExampleGradView& view) {
        if (!per_layer) {
          if (in_d[j]) out.norms_d.push_back(view.norm);
          if (in_dprime[j]) out.norms_dprime.push_back(view.norm);
        }
        float* a = in_d[j] ? out.sum_d.data() : out.sum_dprime.data();
        float* b = in_d[j] && in_dprime[j] ? out.sum_dprime.data() : nullptr;
        if (per_layer) {
          for (size_t r = 0; r < ranges.size(); ++r) {
            const size_t off = ranges[r].offset;
            accumulate(a + off, b == nullptr ? nullptr : b + off,
                       view.grad + off, ranges[r].size,
                       ClipScale(view.layer_norms[r], per_layer_clip));
          }
        } else {
          accumulate(a, b, view.grad, num_params,
                     ClipScale(view.norm, clip_norm));
        }
      });
  return out;
}

NeighborSums ComputeClippedNeighborSumsTwoPass(GradientEngine& engine,
                                               const Dataset& d,
                                               const Dataset& d_prime,
                                               double clip_norm,
                                               bool per_layer) {
  NeighborSums out;
  if (per_layer) {
    out.sum_d = engine.PerLayerClippedGradientSum(d.inputs, d.labels,
                                                  clip_norm);
    out.sum_dprime = engine.PerLayerClippedGradientSum(
        d_prime.inputs, d_prime.labels, clip_norm);
  } else {
    out.sum_d = engine.ClippedGradientSum(d.inputs, d.labels, clip_norm,
                                          &out.norms_d);
    out.sum_dprime = engine.ClippedGradientSum(d_prime.inputs, d_prime.labels,
                                               clip_norm, &out.norms_dprime);
  }
  return out;
}

}  // namespace dpaudit
