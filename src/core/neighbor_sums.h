// Clipped gradient sums over a pair of neighboring datasets, sharing the
// per-example gradients of the records the two datasets have in common.
//
// DPSGD-as-audited-here evaluates BOTH neighbors' clipped gradient sums at
// every step (dpsgd.h explains why). D and D' differ in at most one record,
// so the naive two-pass evaluation backpropagates every shared record twice.
// Sharing computes each shared gradient once and adds it to both sums
// (the engine's two-sum membership, GradientEngine::ClipAndSum), almost
// halving the per-step backprop work, while keeping both sums bit-identical
// to the two-pass reference:
//
//   Bounded (D' = D with record k replaced): the union's examples are
//   [d_0 .. d_{k-1}, d_k, d'_k, d_{k+1} .. d_{n-1}]. sum_d takes every
//   example except d'_k and sum_dprime every example except d_k, so each
//   sum receives exactly its dataset's clipped gradients in that dataset's
//   original record order — the same additions in the same order as an
//   independent pass.
//
//   Unbounded (D' = D with record k removed): the union is D itself and
//   sum_dprime simply skips example k.
//
// When the datasets do not have the expected near-identical structure (the
// overlap analysis fails), callers fall back to the two-pass path.

#ifndef DPAUDIT_CORE_NEIGHBOR_SUMS_H_
#define DPAUDIT_CORE_NEIGHBOR_SUMS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "dp/privacy_params.h"
#include "nn/gradient_engine.h"

namespace dpaudit {

/// Result of checking whether (d, d_prime) have the one-record-difference
/// structure that gradient sharing requires.
struct NeighborOverlap {
  bool sharable = false;
  /// Bounded: the single differing record index (0 if the datasets are
  /// identical). Unbounded: the index of the record of D missing from D'.
  size_t diff_index = 0;
};

/// Compares the datasets record-by-record. Bounded mode requires equal sizes
/// and at most one differing record; unbounded requires |D| == |D'| + 1 with
/// D' equal to D minus one record. Anything else is not sharable.
NeighborOverlap AnalyzeNeighborOverlap(const Dataset& d, const Dataset& d_prime,
                                       NeighborMode mode);

/// Both neighbors' clipped gradient sums at the engine's current parameters,
/// plus each dataset's per-example pre-clip gradient norm stream (whole-
/// gradient norms; empty in per-layer mode, which clips per layer instead).
struct NeighborSums {
  std::vector<float> sum_d;
  std::vector<float> sum_dprime;
  std::vector<double> norms_d;
  std::vector<double> norms_dprime;
};

/// Shared-gradient evaluation; `overlap` must have sharable == true. Set
/// `per_layer` for per-layer clipping (GradientEngine::
/// PerLayerClippedGradientSum semantics). Bit-identical to
/// ComputeClippedNeighborSumsTwoPass.
///
/// A non-null `batch` (unbounded only; one flag per record of D) restricts
/// the common records to a Poisson batch: a common record enters both sums
/// iff its flag is set, while x1 = d[overlap.diff_index] always enters
/// sum_d, so the sums are the two hypotheses' centers over the batch. An
/// all-set batch gives the unbatched sums bit for bit.
NeighborSums ComputeClippedNeighborSums(
    GradientEngine& engine, const Dataset& d, const Dataset& d_prime,
    const NeighborOverlap& overlap, NeighborMode mode, double clip_norm,
    bool per_layer, const std::vector<uint8_t>* batch = nullptr);

/// Reference path: two independent clipped sums (still parallel across
/// examples via the engine). Used when sharing is not applicable.
NeighborSums ComputeClippedNeighborSumsTwoPass(GradientEngine& engine,
                                               const Dataset& d,
                                               const Dataset& d_prime,
                                               double clip_norm,
                                               bool per_layer);

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_NEIGHBOR_SUMS_H_
