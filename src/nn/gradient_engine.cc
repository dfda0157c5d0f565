#include "nn/gradient_engine.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "nn/layer.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace dpaudit {

namespace {

// ---- Clip-stage kernels ----------------------------------------------------
//
// Every block is factored (LaneGradBlock): a row's elements for lane l are
// the float products d[l] * x[c * lanes + l].
//
// Norm pass: lanes are independent chains, so vectorizing across them keeps
// every chain's ascending-element order — the L2Norm chain — and each
// sqrt(sq[l]) is bit-identical to L2Norm over lane l's flat gradient. The
// square of a widened float is exact in double, so the x86 bodies fuse it
// into its add (AddExactProduct in util/simd.h).
//
// Accumulate pass: every sum element receives its lanes' terms
// float(scale * double(g)) in lane (= example) order — the rounding
// sequence of AccumulateScaled, one example after another.
//
// Each pass has three bodies, picked by the engine's SimdTier: the portable
// one, AVX2+FMA (8 lanes or elements as two 4-wide halves) and AVX-512 (all
// 8 in one zmm). The vector bodies apply the same IEEE operations to every
// element in the same order, so the tiers are bit-identical.

DPAUDIT_LANE_INLINE void SquaresBody(const float* __restrict__ d,
                                     size_t rows,
                                     const float* __restrict__ x,
                                     size_t cols, size_t lanes,
                                     double* __restrict__ sq) {
  double acc[kMaxBatchLanes];
  for (size_t l = 0; l < lanes; ++l) acc[l] = sq[l];
  for (size_t r = 0; r < rows; ++r) {
    const float* dr = d + r * lanes;
    for (size_t c = 0; c < cols; ++c) {
      for (size_t l = 0; l < lanes; ++l) {
        const float v = dr[l] * x[c * lanes + l];
        acc[l] += static_cast<double>(v) * v;
      }
    }
  }
  for (size_t l = 0; l < lanes; ++l) sq[l] = acc[l];
}

/// One lane's accumulate-pass operands.
struct LaneTerm {
  double scale;
  uint8_t sums;  // GradientEngine::kSumA / kSumB flags
};

// Adds lane l's terms d[l] * x[l][e] for elements [0, n) of one block row
// to a and/or b, lanes in ascending order per element. x[l] is lane l's
// column factor, lane-major. Elements are walked in tiles so both sums'
// tile stays in L1 while every lane adds to it.
DPAUDIT_LANE_INLINE void AccumulateLanesBody(const float* const* x,
                                             const float* d,
                                             const LaneTerm* terms,
                                             size_t count, size_t n,
                                             float* a, float* b) {
  constexpr size_t kTile = 64;
  for (size_t e0 = 0; e0 < n; e0 += kTile) {
    const size_t m = std::min(kTile, n - e0);
    for (size_t l = 0; l < count; ++l) {
      const float* xl = x[l] + e0;
      const double scale = terms[l].scale;
      const uint8_t sums = terms[l].sums;
      for (size_t e = 0; e < m; ++e) {
        const float t = static_cast<float>(scale * (d[l] * xl[e]));
        if (sums & GradientEngine::kSumA) a[e0 + e] += t;
        if (sums & GradientEngine::kSumB) b[e0 + e] += t;
      }
    }
  }
}

/// The next pack's norm pass over the same block row as an accumulate
/// pass, 8 lanes: element c is d[l] * x[c * 8 + l]. Its chains continue in
/// sq.
struct NormOperand {
  const float* d;
  const float* x;
  double* sq;
};

/// True when the accumulate pass can carry the next pack's norm pass.
bool CanFuseNormPass(size_t lanes, SimdTier tier) {
  return lanes == 8 && tier != SimdTier::kScalar;
}

#if defined(DPAUDIT_X86_DISPATCH)
/// The vector accumulate bodies' per-lane operands, copied out of the
/// arguments: the compiler cannot prove the sum stores leave those alone.
struct LaneOperands {
  const float* cols[kMaxBatchLanes];
  double scale[kMaxBatchLanes];
  float factor[kMaxBatchLanes];
  bool to_a[kMaxBatchLanes];
  bool to_b[kMaxBatchLanes];
  bool any_a = false;
  bool any_b = false;

  DPAUDIT_LANE_INLINE LaneOperands(const float* const* x, const float* d,
                                   const LaneTerm* terms, size_t count) {
    for (size_t l = 0; l < count; ++l) {
      cols[l] = x[l];
      scale[l] = terms[l].scale;
      factor[l] = d[l];
      to_a[l] = (terms[l].sums & GradientEngine::kSumA) != 0;
      to_b[l] = (terms[l].sums & GradientEngine::kSumB) != 0;
      any_a |= to_a[l];
      any_b |= to_b[l];
    }
  }
};

// Norm steps for elements [begin, end) of one block row, 8 lanes as two
// 4-lane halves: the float product, exact widening, then one fused
// multiply-add per lane.
__attribute__((target("avx2,fma"), always_inline)) inline void Squares8(
    __m128 d_lo, __m128 d_hi, const float* x, size_t begin, size_t end,
    __m256d* lo, __m256d* hi) {
  for (size_t c = begin; c < end; ++c) {
    const __m256d v_lo =
        _mm256_cvtps_pd(_mm_mul_ps(d_lo, _mm_loadu_ps(x + c * 8)));
    const __m256d v_hi =
        _mm256_cvtps_pd(_mm_mul_ps(d_hi, _mm_loadu_ps(x + c * 8 + 4)));
    *lo = _mm256_fmadd_pd(v_lo, v_lo, *lo);
    *hi = _mm256_fmadd_pd(v_hi, v_hi, *hi);
  }
}

__attribute__((target("avx2,fma"))) void Squares8Avx2Fma(
    const float* d, size_t rows, const float* x, size_t cols, double* sq) {
  __m256d lo = _mm256_loadu_pd(sq);
  __m256d hi = _mm256_loadu_pd(sq + 4);
  for (size_t r = 0; r < rows; ++r) {
    Squares8(_mm_loadu_ps(d + r * 8), _mm_loadu_ps(d + r * 8 + 4), x, 0, cols,
             &lo, &hi);
  }
  _mm256_storeu_pd(sq, lo);
  _mm256_storeu_pd(sq + 4, hi);
}

// float(scale * double(v)) for 4 elements: exact widening, one rounded
// double multiply, one rounding to float — AccumulateScaled's term.
__attribute__((target("avx2"), always_inline)) inline __m128 ScaledTerms4(
    __m128 v, __m256d scale) {
  return _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_cvtps_pd(v), scale));
}

// AccumulateLanesBody with 8 elements of both sums held in registers (as
// 4-element halves, which keeps the conversions free of lane shuffles)
// while every lane adds its terms; the tail runs the portable body.
// kCount pins the lane count (0: runtime `count`) so a full pack unrolls.
// With kNorm the same loop runs the next pack's norm steps over the same
// elements: those chains are latency-bound and ride in the shadow of the
// accumulate pass's conversions.
template <size_t kCount, bool kNorm>
__attribute__((target("avx2,fma"))) void AccumulateLanesAvx2Fma(
    const float* const* x, const float* d, const LaneTerm* terms,
    size_t count_arg, size_t n, float* a, float* b, const NormOperand* norm) {
  const size_t count = kCount != 0 ? kCount : count_arg;
  const LaneOperands ops(x, d, terms, count);
  __m256d sq_lo = _mm256_setzero_pd();
  __m256d sq_hi = _mm256_setzero_pd();
  __m128 nd_lo = _mm_setzero_ps();
  __m128 nd_hi = _mm_setzero_ps();
  if (kNorm) {
    sq_lo = _mm256_loadu_pd(norm->sq);
    sq_hi = _mm256_loadu_pd(norm->sq + 4);
    nd_lo = _mm_loadu_ps(norm->d);
    nd_hi = _mm_loadu_ps(norm->d + 4);
  }
  size_t e = 0;
  for (; e + 8 <= n; e += 8) {
    __m128 a_lo = ops.any_a ? _mm_loadu_ps(a + e) : _mm_setzero_ps();
    __m128 a_hi = ops.any_a ? _mm_loadu_ps(a + e + 4) : _mm_setzero_ps();
    __m128 b_lo = ops.any_b ? _mm_loadu_ps(b + e) : _mm_setzero_ps();
    __m128 b_hi = ops.any_b ? _mm_loadu_ps(b + e + 4) : _mm_setzero_ps();
#pragma GCC unroll 8
    for (size_t l = 0; l < count; ++l) {
      const __m128 f = _mm_set1_ps(ops.factor[l]);
      const __m256d s = _mm256_set1_pd(ops.scale[l]);
      const __m128 t_lo =
          ScaledTerms4(_mm_mul_ps(f, _mm_loadu_ps(ops.cols[l] + e)), s);
      const __m128 t_hi =
          ScaledTerms4(_mm_mul_ps(f, _mm_loadu_ps(ops.cols[l] + e + 4)), s);
      if (ops.to_a[l]) {
        a_lo = _mm_add_ps(a_lo, t_lo);
        a_hi = _mm_add_ps(a_hi, t_hi);
      }
      if (ops.to_b[l]) {
        b_lo = _mm_add_ps(b_lo, t_lo);
        b_hi = _mm_add_ps(b_hi, t_hi);
      }
    }
    if (ops.any_a) {
      _mm_storeu_ps(a + e, a_lo);
      _mm_storeu_ps(a + e + 4, a_hi);
    }
    if (ops.any_b) {
      _mm_storeu_ps(b + e, b_lo);
      _mm_storeu_ps(b + e + 4, b_hi);
    }
    if (kNorm) Squares8(nd_lo, nd_hi, norm->x, e, e + 8, &sq_lo, &sq_hi);
  }
  if (e < n) {
    const float* tail[kMaxBatchLanes];
    for (size_t l = 0; l < count; ++l) tail[l] = ops.cols[l] + e;
    AccumulateLanesBody(tail, d, terms, count, n - e, a + e, b + e);
    if (kNorm) Squares8(nd_lo, nd_hi, norm->x, e, n, &sq_lo, &sq_hi);
  }
  if (kNorm) {
    _mm256_storeu_pd(norm->sq, sq_lo);
    _mm256_storeu_pd(norm->sq + 4, sq_hi);
  }
}

// _mm512_cvtps_pd and _mm512_cvtpd_ps through their zero-masking forms with
// a full mask: the same instructions, without GCC 12's -Wmaybe-uninitialized
// from the plain forms' undefined pass-through operand.
__attribute__((target("avx2,fma,avx512f"), always_inline)) inline __m512d
WidenPs8(__m256 v) {
  return _mm512_maskz_cvtps_pd(0xFF, v);
}

__attribute__((target("avx2,fma,avx512f"), always_inline)) inline __m256
NarrowPd8(__m512d v) {
  return _mm512_maskz_cvtpd_ps(0xFF, v);
}

// Squares8 with the 8 lanes in one zmm.
__attribute__((target("avx2,fma,avx512f"), always_inline)) inline void
Squares8Zmm(__m256 d, const float* x, size_t begin, size_t end,
            __m512d* sq) {
  for (size_t c = begin; c < end; ++c) {
    const __m512d v = WidenPs8(_mm256_mul_ps(d, _mm256_loadu_ps(x + c * 8)));
    *sq = _mm512_fmadd_pd(v, v, *sq);
  }
}

__attribute__((target("avx2,fma,avx512f"))) void Squares8Avx512(
    const float* d, size_t rows, const float* x, size_t cols, double* sq) {
  __m512d acc = _mm512_loadu_pd(sq);
  for (size_t r = 0; r < rows; ++r) {
    Squares8Zmm(_mm256_loadu_ps(d + r * 8), x, 0, cols, &acc);
  }
  _mm512_storeu_pd(sq, acc);
}

// AccumulateLanesAvx2Fma with each lane's 8 terms widened, scaled and
// narrowed in one zmm, and the next pack's norm chains in one zmm.
template <size_t kCount, bool kNorm>
__attribute__((target("avx2,fma,avx512f"))) void AccumulateLanesAvx512(
    const float* const* x, const float* d, const LaneTerm* terms,
    size_t count_arg, size_t n, float* a, float* b, const NormOperand* norm) {
  const size_t count = kCount != 0 ? kCount : count_arg;
  const LaneOperands ops(x, d, terms, count);
  __m512d sq = _mm512_setzero_pd();
  __m256 nd = _mm256_setzero_ps();
  if (kNorm) {
    sq = _mm512_loadu_pd(norm->sq);
    nd = _mm256_loadu_ps(norm->d);
  }
  size_t e = 0;
  for (; e + 8 <= n; e += 8) {
    __m256 sum_a = ops.any_a ? _mm256_loadu_ps(a + e) : _mm256_setzero_ps();
    __m256 sum_b = ops.any_b ? _mm256_loadu_ps(b + e) : _mm256_setzero_ps();
#pragma GCC unroll 8
    for (size_t l = 0; l < count; ++l) {
      const __m256 g = _mm256_mul_ps(_mm256_set1_ps(ops.factor[l]),
                                     _mm256_loadu_ps(ops.cols[l] + e));
      const __m256 t =
          NarrowPd8(_mm512_mul_pd(WidenPs8(g), _mm512_set1_pd(ops.scale[l])));
      if (ops.to_a[l]) sum_a = _mm256_add_ps(sum_a, t);
      if (ops.to_b[l]) sum_b = _mm256_add_ps(sum_b, t);
    }
    if (ops.any_a) _mm256_storeu_ps(a + e, sum_a);
    if (ops.any_b) _mm256_storeu_ps(b + e, sum_b);
    if (kNorm) Squares8Zmm(nd, norm->x, e, e + 8, &sq);
  }
  if (e < n) {
    const float* tail[kMaxBatchLanes];
    for (size_t l = 0; l < count; ++l) tail[l] = ops.cols[l] + e;
    AccumulateLanesBody(tail, d, terms, count, n - e, a + e, b + e);
    if (kNorm) Squares8Zmm(nd, norm->x, e, n, &sq);
  }
  if (kNorm) _mm512_storeu_pd(norm->sq, sq);
}

// The vector accumulate body of `tier` (not kScalar).
template <size_t kCount, bool kNorm>
void AccumulateLanesVector(SimdTier tier, const float* const* x,
                           const float* d, const LaneTerm* terms,
                           size_t count, size_t n, float* a, float* b,
                           const NormOperand* norm) {
  if (tier == SimdTier::kAvx512) {
    AccumulateLanesAvx512<kCount, kNorm>(x, d, terms, count, n, a, b, norm);
  } else {
    AccumulateLanesAvx2Fma<kCount, kNorm>(x, d, terms, count, n, a, b, norm);
  }
}
#endif  // DPAUDIT_X86_DISPATCH

/// Continues each of `lanes` chains sq[l] over `block`.
void LaneSquares(SimdTier tier, const LaneGradBlock& block, size_t lanes,
                 double* sq) {
#if defined(DPAUDIT_X86_DISPATCH)
  if (lanes == 8 && tier == SimdTier::kAvx512) {
    Squares8Avx512(block.rows, block.num_rows, block.cols, block.num_cols, sq);
    return;
  }
  if (lanes == 8 && tier == SimdTier::kAvx2Fma) {
    Squares8Avx2Fma(block.rows, block.num_rows, block.cols, block.num_cols,
                    sq);
    return;
  }
#endif
  SquaresBody(block.rows, block.num_rows, block.cols, block.num_cols, lanes,
              sq);
}

/// The accumulate pass over one block row; a non-null `norm` (only when
/// CanFuseNormPass) also runs the next pack's norm steps over it.
void AccumulateLanes(SimdTier tier, const float* const* x, const float* d,
                     const LaneTerm* terms, size_t count, size_t n, float* a,
                     float* b, const NormOperand* norm) {
#if defined(DPAUDIT_X86_DISPATCH)
  if (tier != SimdTier::kScalar) {
    if (norm != nullptr) {
      if (count == 8) {
        AccumulateLanesVector<8, true>(tier, x, d, terms, count, n, a, b,
                                       norm);
      } else {
        AccumulateLanesVector<0, true>(tier, x, d, terms, count, n, a, b,
                                       norm);
      }
    } else if (count == 8) {
      AccumulateLanesVector<8, false>(tier, x, d, terms, count, n, a, b,
                                      nullptr);
    } else {
      AccumulateLanesVector<0, false>(tier, x, d, terms, count, n, a, b,
                                      nullptr);
    }
    return;
  }
#endif
  DPAUDIT_CHECK(norm == nullptr);
  AccumulateLanesBody(x, d, terms, count, n, a, b);
}

/// The ordered hand-off between the participants of a clip region. Pack p
/// is computed into ring slot p % slots once the slot's previous pack has
/// been reduced, and is reduced once every pack < p has been, by whichever
/// participant holds the reducer turn: a participant that publishes a pack
/// takes the turn if it is free and keeps it while the next pack is ready.
/// A participant that finds the turn taken leaves at once; the holder sees
/// its pack before letting go. The sums thus receive the packs in pack order
/// — the order of one participant — and no participant waits on a barrier.
class OrderedReduction {
 public:
  explicit OrderedReduction(size_t slots) : ready_(slots, 0) {}

  /// Blocks until pack p's slot no longer holds an unreduced pack.
  void AwaitSlot(size_t p) {
    std::unique_lock<std::mutex> lock(mu_);
    slot_free_.wait(lock, [&] { return p < reduced_ + ready_.size(); });
  }

  /// Marks pack p computed, then runs reduce(q) for each ready pack q the
  /// turn reaches, in ascending q, outside the lock.
  template <typename Reduce>
  void Publish(size_t p, const Reduce& reduce) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_[p % ready_.size()] = 1;
    if (reducing_) return;
    reducing_ = true;
    while (ready_[reduced_ % ready_.size()] != 0) {
      const size_t q = reduced_;
      lock.unlock();
      reduce(q);
      lock.lock();
      ready_[q % ready_.size()] = 0;
      ++reduced_;
      slot_free_.notify_all();
    }
    reducing_ = false;
  }

 private:
  std::mutex mu_;
  std::condition_variable slot_free_;
  std::vector<uint8_t> ready_;  // per slot: its pack is computed
  size_t reduced_ = 0;          // packs [0, reduced_) are in the sums
  bool reducing_ = false;       // some participant holds the reducer turn
};

}  // namespace

GradientEngine::GradientEngine(const Network& architecture, Options options)
    : threads_(options.threads == 0 ? DefaultThreadCount() : options.threads),
      lanes_(options.batch_lanes == Options::kBatchLanesAuto
                 ? BatchLanesFromEnv()
                 : std::min(options.batch_lanes, kMaxBatchLanes)),
      num_params_(architecture.NumParams()),
      ranges_(architecture.LayerParamRanges()),
      tier_(ClipStageTier()) {
  DPAUDIT_CHECK_GE(lanes_, 1u) << "batch lanes must be >= 1; 1 runs the "
                                  "width-1 reference";
  replicas_.reserve(threads_);
  for (size_t t = 0; t < threads_; ++t) {
    replicas_.push_back(architecture.Clone());
  }
  workspaces_.resize(threads_);
  // Two records per participant: one being computed and one waiting for
  // its turn to be accumulated.
  records_.resize(2 * threads_);
  pack_inputs_.resize(threads_);
  pack_labels_.resize(threads_);
}

void GradientEngine::SyncParams(const Network& source) {
  std::vector<float> flat = source.FlatParams();
  DPAUDIT_CHECK_EQ(flat.size(), num_params_);
  for (Network& replica : replicas_) replica.SetFlatParams(flat);
}

void GradientEngine::ComputeRecord(size_t participant,
                                   const std::vector<const Tensor*>& inputs,
                                   const size_t* labels, size_t begin,
                                   size_t count, NormMode mode, double clip,
                                   const PendingPack& pending,
                                   PackRecord* record) {
  DPAUDIT_METRIC_DISTRIBUTION("dpaudit_gradient_engine_lane_fill", 0.0, 1.0,
                              16,
                              static_cast<double>(count) /
                                  static_cast<double>(lanes_));
  // Every pack runs at the engine's width: the fast wrappers pin the lane
  // count, and a narrower runtime width is slower than a padded full pack.
  // So a ragged tail is padded with copies of its last example.
  std::vector<const Tensor*>& pack_in = pack_inputs_[participant];
  pack_in.assign(inputs.begin() + begin, inputs.begin() + begin + count);
  pack_in.resize(lanes_, pack_in[count - 1]);
  const size_t* pack_labels = labels + begin;
  if (count < lanes_) {
    std::vector<size_t>& padded = pack_labels_[participant];
    padded.assign(labels + begin, labels + begin + count);
    padded.resize(lanes_, padded[count - 1]);
    pack_labels = padded.data();
  }
  GradientWorkspace& ws = workspaces_[participant];
  replicas_[participant].LaneGradientsInto(pack_in.data(), pack_labels,
                                           lanes_, &ws);

  // The record keeps the pack's compact gradient for its accumulate pass:
  // each block's row factors as they are, and its column factors
  // lane-major, so each lane's terms stream contiguously.
  const size_t num_blocks = ws.lane_grads.size();
  record->count = count;
  record->blocks.clear();
  size_t flat = 0;
  size_t data = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const LaneGradBlock& block = ws.lane_grads[b];
    record->blocks.push_back({flat, data, block.num_rows, block.num_cols,
                              ws.lane_grad_ranges[b]});
    flat += block.size();
    data += (block.num_rows + block.num_cols) * lanes_;
  }
  DPAUDIT_CHECK_EQ(flat, num_params_);
  record->data.resize(data);
  for (size_t b = 0; b < num_blocks; ++b) {
    const LaneGradBlock& block = ws.lane_grads[b];
    float* dst = record->data.data() + record->blocks[b].data;
    std::copy(block.rows, block.rows + block.num_rows * lanes_, dst);
    UnpackLanes(block.cols, block.num_cols, lanes_, count,
                dst + block.num_rows * lanes_);
  }

  // Norm pass over the layers' blocks in place, in flat gradient order: one
  // chain per lane across all blocks for kWhole, restarted at each param
  // range for kPerLayer. With a pending pack, its accumulate pass carries
  // these norm steps, block by block.
  const size_t per_example = NormsPerExample(mode);
  record->norms.resize(count * per_example);
  double sq[kMaxBatchLanes] = {};
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t range = ws.lane_grad_ranges[b];
    if (pending.record != nullptr) {
      AccumulateBlock(*pending.record, b, pending.sums, mode, pending.out,
                      &ws.lane_grads[b], sq);
    } else {
      LaneSquares(tier_, ws.lane_grads[b], lanes_, sq);
    }
    const bool range_ends =
        b + 1 == num_blocks || ws.lane_grad_ranges[b + 1] != range;
    if (mode == NormMode::kPerLayer && range_ends) {
      for (size_t l = 0; l < count; ++l) {
        record->norms[l * per_example + range] = std::sqrt(sq[l]);
      }
      std::fill(sq, sq + lanes_, 0.0);
    }
  }
  if (mode == NormMode::kWhole) {
    for (size_t l = 0; l < count; ++l) record->norms[l] = std::sqrt(sq[l]);
  }
  record->scales.resize(record->norms.size());
  for (size_t i = 0; i < record->norms.size(); ++i) {
    record->scales[i] = ClipScale(record->norms[i], clip);
  }
}

void GradientEngine::AccumulateBlock(const PackRecord& record, size_t index,
                                     const uint8_t* flags, NormMode mode,
                                     ClippedSums* out,
                                     const LaneGradBlock* next,
                                     double* next_sq) const {
  const RecordBlock& block = record.blocks[index];
  const size_t per_example = NormsPerExample(mode);
  const size_t scale_index = mode == NormMode::kWhole ? 0 : block.range;
  LaneTerm terms[kMaxBatchLanes];
  for (size_t l = 0; l < record.count; ++l) {
    terms[l] = {record.scales[l * per_example + scale_index], flags[l]};
  }
  const float* rows = record.data.data() + block.data;
  const float* cols[kMaxBatchLanes];
  for (size_t l = 0; l < record.count; ++l) {
    cols[l] = rows + block.rows * lanes_ + l * block.cols;
  }
  for (size_t r = 0; r < block.rows; ++r) {
    const size_t offset = block.flat + r * block.cols;
    NormOperand norm{nullptr, nullptr, next_sq};
    if (next != nullptr) {
      norm.d = next->rows + r * lanes_;
      norm.x = next->cols;
    }
    AccumulateLanes(tier_, cols, rows + r * lanes_, terms, record.count,
                    block.cols, out->sum_a.data() + offset,
                    out->sum_b.data() + offset,
                    next == nullptr ? nullptr : &norm);
  }
}

void GradientEngine::Accumulate(const PackRecord& record,
                                const uint8_t* flags, NormMode mode,
                                ClippedSums* out) const {
  for (size_t b = 0; b < record.blocks.size(); ++b) {
    AccumulateBlock(record, b, flags, mode, out, nullptr, nullptr);
  }
}

GradientEngine::ClippedSums GradientEngine::ClipAndSum(
    const std::vector<const Tensor*>& inputs, const std::vector<size_t>& labels,
    const std::vector<uint8_t>& sums, NormMode mode, double clip_norm) {
  DPAUDIT_CHECK_EQ(inputs.size(), labels.size());
  DPAUDIT_CHECK_EQ(inputs.size(), sums.size());
  DPAUDIT_CHECK_GT(clip_norm, 0.0);
  DPAUDIT_CHECK(mode == NormMode::kWhole || !ranges_.empty());
  const size_t n = inputs.size();
  DPAUDIT_METRIC_COUNT("dpaudit_per_example_gradients_total", n);
  const double clip =
      mode == NormMode::kWhole
          ? clip_norm
          : clip_norm / std::sqrt(static_cast<double>(ranges_.size()));
  ClippedSums out;
  out.sum_a.assign(num_params_, 0.0f);
  out.sum_b.assign(num_params_, 0.0f);
  // Packs hold same-shaped examples, and so does every call: the paper's
  // datasets have one shape per network.
  for (size_t j = 1; j < n; ++j) {
    DPAUDIT_CHECK(inputs[j]->shape() == inputs[0]->shape())
        << "example " << j << " shape " << inputs[j]->ShapeString()
        << " != " << inputs[0]->ShapeString();
  }
  const size_t packs = (n + lanes_ - 1) / lanes_;
  const size_t per_example = NormsPerExample(mode);
  out.norms.resize(n * per_example);
  // A sole participant computes every pack in order, so it holds each pack
  // back for the next one: where the kernels allow, the next pack's norm
  // pass accumulates it. Several participants hand packs to the ordered
  // reduction instead.
  const bool sole = std::min(threads_, packs) == 1;
  PendingPack pending{nullptr, nullptr, &out};
  OrderedReduction reduction(records_.size());
  ThreadPool::ParallelForChunked(
      packs, threads_, /*grain=*/1, [&](size_t p, size_t participant) {
        const size_t j = p * lanes_;
        const size_t count = std::min(lanes_, n - j);
        PackRecord& record = records_[p % records_.size()];
        PendingPack fused{nullptr, nullptr, &out};
        if (!sole) {
          reduction.AwaitSlot(p);
        } else if (pending.record != nullptr) {
          if (CanFuseNormPass(lanes_, tier_)) {
            fused = pending;
          } else {
            Accumulate(*pending.record, pending.sums, mode, &out);
          }
        }
        ComputeRecord(participant, inputs, labels.data(), j, count, mode, clip,
                      fused, &record);
        std::copy(record.norms.begin(), record.norms.end(),
                  out.norms.begin() + j * per_example);
        if (sole) {
          pending = {&record, sums.data() + j, &out};
        } else {
          reduction.Publish(p, [&](size_t q) {
            Accumulate(records_[q % records_.size()],
                       sums.data() + q * lanes_, mode, &out);
          });
        }
      });
  if (pending.record != nullptr) {
    Accumulate(*pending.record, pending.sums, mode, &out);
  }
  return out;
}

std::vector<float> GradientEngine::ClippedGradientSum(
    const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
    double clip_norm, std::vector<double>* per_example_norms) {
  std::vector<const Tensor*> ptrs(inputs.size());
  for (size_t j = 0; j < inputs.size(); ++j) ptrs[j] = &inputs[j];
  ClippedSums sums =
      ClipAndSum(ptrs, labels, std::vector<uint8_t>(inputs.size(), kSumA),
                 NormMode::kWhole, clip_norm);
  if (per_example_norms != nullptr) *per_example_norms = std::move(sums.norms);
  return std::move(sums.sum_a);
}

std::vector<float> GradientEngine::PerLayerClippedGradientSum(
    const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
    double clip_norm) {
  std::vector<const Tensor*> ptrs(inputs.size());
  for (size_t j = 0; j < inputs.size(); ++j) ptrs[j] = &inputs[j];
  return ClipAndSum(ptrs, labels, std::vector<uint8_t>(inputs.size(), kSumA),
                    NormMode::kPerLayer, clip_norm)
      .sum_a;
}

}  // namespace dpaudit
