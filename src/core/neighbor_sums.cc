#include "core/neighbor_sums.h"

#include <cstdint>
#include <utility>

#include "tensor/tensor.h"
#include "util/logging.h"

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

NeighborSums ComputeClippedNeighborSums(
    GradientEngine& engine, const Dataset& d, const Dataset& d_prime,
    const NeighborOverlap& overlap, NeighborMode mode, double clip_norm,
    bool per_layer, const std::vector<uint8_t>* batch) {
  DPAUDIT_CHECK(overlap.sharable);
  DPAUDIT_CHECK_GT(clip_norm, 0.0);
  if (batch != nullptr) {
    DPAUDIT_CHECK(mode == NeighborMode::kUnbounded);
    DPAUDIT_CHECK_EQ(batch->size(), d.size());
  }

  // Union example list plus each example's sums: sum A is sum_d, sum B is
  // sum_dprime. Bounded inserts d'_k directly after d_k; unbounded's union
  // is D itself.
  constexpr uint8_t kD = GradientEngine::kSumA;
  constexpr uint8_t kDPrime = GradientEngine::kSumB;
  const size_t k = overlap.diff_index;
  std::vector<const Tensor*> inputs;
  std::vector<size_t> labels;
  std::vector<uint8_t> sums;
  const size_t union_size =
      mode == NeighborMode::kBounded ? d.size() + 1 : d.size();
  inputs.reserve(union_size);
  labels.reserve(union_size);
  sums.reserve(union_size);
  for (size_t j = 0; j < d.size(); ++j) {
    if (batch != nullptr && j != k && (*batch)[j] == 0) continue;
    inputs.push_back(&d.inputs[j]);
    labels.push_back(d.labels[j]);
    sums.push_back(j == k ? kD : kD | kDPrime);
    if (mode == NeighborMode::kBounded && j == k) {
      inputs.push_back(&d_prime.inputs[k]);
      labels.push_back(d_prime.labels[k]);
      sums.push_back(kDPrime);
    }
  }

  GradientEngine::ClippedSums clipped = engine.ClipAndSum(
      inputs, labels, sums,
      per_layer ? GradientEngine::NormMode::kPerLayer
                : GradientEngine::NormMode::kWhole,
      clip_norm);
  NeighborSums out;
  out.sum_d = std::move(clipped.sum_a);
  out.sum_dprime = std::move(clipped.sum_b);
  if (!per_layer) {
    out.norms_d.reserve(d.size());
    out.norms_dprime.reserve(d_prime.size());
    for (size_t j = 0; j < sums.size(); ++j) {
      if (sums[j] & kD) out.norms_d.push_back(clipped.norms[j]);
      if (sums[j] & kDPrime) out.norms_dprime.push_back(clipped.norms[j]);
    }
  }
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
