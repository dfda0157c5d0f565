#include "util/random.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/simd.h"

namespace dpaudit {

namespace {

constexpr size_t kN = Mt19937_64::kStateSize;
constexpr size_t kM = 156;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

// Polar-method attempts converted per group: 16 engine words. Small groups
// keep the work spent on attempts past the last one a fill needs low.
constexpr size_t kGroup = 8;

// One MT19937-64 recurrence step. The standard's "xor A if the low bit is
// set" is a mask, not a branch: that bit is random, so a branch would
// mispredict half the time.
DPAUDIT_LANE_INLINE uint64_t TwistWord(uint64_t cur, uint64_t next,
                                       uint64_t far) {
  const uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

// Regenerates a whole block in place. Each loop only reads words it has not
// yet overwritten or ones at least kM behind, so both vectorize.
DPAUDIT_LANE_INLINE void TwistBody(uint64_t* __restrict__ x) {
  for (size_t i = 0; i < kN - kM; ++i) {
    x[i] = TwistWord(x[i], x[i + 1], x[i + kM]);
  }
  for (size_t i = kN - kM; i < kN - 1; ++i) {
    x[i] = TwistWord(x[i], x[i + 1], x[i + kM - kN]);
  }
  x[kN - 1] = TwistWord(x[kN - 1], x[0], x[kM - 1]);
}

// Runs `count` polar attempts on the raw words w[0..2 * count): temper,
// map to [0, 1) and then to [-1, 1) in lanes, then compact the accepted
// attempts (0 < r2 <= 1) to the front of ax/ay/ar2 without a branch.
// ends[j] is the number of words consumed through accepted attempt j.
// Returns the number accepted.
DPAUDIT_LANE_INLINE size_t PolarAttempts(const uint64_t* __restrict__ w,
                                         size_t count, double* ax, double* ay,
                                         double* ar2, size_t* ends) {
  double u[2 * kGroup];
  for (size_t m = 0; m < 2 * count; ++m) {
    u[m] = 2.0 * CanonicalFromBits(Mt19937_64::Temper(w[m])) - 1.0;
  }
  size_t accepted = 0;
  for (size_t k = 0; k < count; ++k) {
    const double x = u[2 * k];
    const double y = u[2 * k + 1];
    const double r2 = x * x + y * y;
    ax[accepted] = x;
    ay[accepted] = y;
    ar2[accepted] = r2;
    ends[accepted] = 2 * k + 2;
    accepted += static_cast<size_t>((r2 <= 1.0) & (r2 != 0.0));
  }
  return accepted;
}

// Turns the first `use` accepted attempts into variates and writes them to
// out[i..n) in the order std::normal_distribution returns them: y * mult,
// then x * mult. A second variate past n is cached in saved. `+ 0.0` is the
// standard's `* stddev + mean` step at (1, 0): it maps -0.0 (y < 0 with
// r2 == 1) to +0.0. Returns the new fill position.
DPAUDIT_LANE_INLINE size_t EmitPairs(const double* ax, const double* ay,
                                     const double* ar2, size_t use,
                                     double* __restrict__ out, size_t i,
                                     size_t n, double& saved,
                                     bool& has_saved) {
  double lg[kGroup];
  for (size_t j = 0; j < use; ++j) lg[j] = std::log(ar2[j]);
  double vy[kGroup];
  double vx[kGroup];
  for (size_t j = 0; j < use; ++j) {
    const double mult = std::sqrt(-2.0 * lg[j] / ar2[j]);
    vy[j] = ay[j] * mult + 0.0;
    vx[j] = ax[j] * mult + 0.0;
  }
  for (size_t j = 0; j < use; ++j) {
    out[i++] = vy[j];
    if (i == n) {
      saved = vx[j];
      has_saved = true;
      break;
    }
    out[i++] = vx[j];
  }
  return i;
}

// The block-batched polar method behind Rng::FillGaussian: out[0..n) gets
// exactly the variates n repeated Rng::Gaussian() calls would return from an
// empty cache, and the engine ends in the same state. Attempts run a group
// at a time over the current block; the engine index then moves past the
// attempts actually used, so a fill never consumes words a scalar loop
// would not. std::log runs once per accepted attempt.
DPAUDIT_LANE_INLINE void FillPolarBody(uint64_t* __restrict__ words,
                                       size_t& index, double* __restrict__ out,
                                       size_t n, double& saved,
                                       bool& has_saved) {
  double ax[kGroup];
  double ay[kGroup];
  double ar2[kGroup];
  size_t ends[kGroup];
  size_t i = 0;
  while (i < n) {
    if (index >= kN) {
      TwistBody(words);
      index = 0;
    }
    if (index == kN - 1) {
      // The attempt straddles the block boundary: its second word is the
      // first word of the next block.
      const uint64_t first = words[kN - 1];
      TwistBody(words);
      const uint64_t pair[2] = {first, words[0]};
      index = 1;
      const size_t accepted = PolarAttempts(pair, 1, ax, ay, ar2, ends);
      i = EmitPairs(ax, ay, ar2, accepted, out, i, n, saved, has_saved);
      continue;
    }
    const size_t attempts = std::min(kGroup, (kN - index) / 2);
    // A literal count lets the compiler unroll the common full group.
    const size_t accepted =
        attempts == kGroup
            ? PolarAttempts(words + index, kGroup, ax, ay, ar2, ends)
            : PolarAttempts(words + index, attempts, ax, ay, ar2, ends);
    const size_t want = (n - i + 1) / 2;
    const size_t use = std::min(accepted, want);
    index += use == want ? ends[use - 1] : 2 * attempts;
    i = EmitPairs(ax, ay, ar2, use, out, i, n, saved, has_saved);
  }
}

#if defined(DPAUDIT_X86_DISPATCH)
__attribute__((target("avx2"))) void TwistAvx2(uint64_t* words) {
  TwistBody(words);
}

__attribute__((target("avx2"))) void FillPolarAvx2(uint64_t* words,
                                                   size_t& index, double* out,
                                                   size_t n, double& saved,
                                                   bool& has_saved) {
  FillPolarBody(words, index, out, n, saved, has_saved);
}
#endif

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  words_[0] = seed;
  for (size_t i = 1; i < kN; ++i) {
    words_[i] =
        6364136223846793005ULL * (words_[i - 1] ^ (words_[i - 1] >> 62)) + i;
  }
  index_ = kN;
}

void Mt19937_64::Twist() {
#if defined(DPAUDIT_X86_DISPATCH)
  if (HasAvx2()) {
    TwistAvx2(words_);
    index_ = 0;
    return;
  }
#endif
  TwistBody(words_);
  index_ = 0;
}

double Rng::Gaussian() {
  if (has_saved_) {
    has_saved_ = false;
    return saved_;
  }
  double x;
  double y;
  double r2;
  do {
    x = 2.0 * Uniform() - 1.0;
    y = 2.0 * Uniform() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
  // `+ 0.0` is the standard's mean/stddev step; see EmitPairs.
  saved_ = x * mult + 0.0;
  has_saved_ = true;
  return y * mult + 0.0;
}

void Rng::FillGaussian(double* out, size_t n) {
#if defined(DPAUDIT_X86_DISPATCH)
  FillGaussianForTest(out, n, HasAvx2());
#else
  FillGaussianForTest(out, n, false);
#endif
}

void Rng::FillGaussianForTest(double* out, size_t n, bool use_avx2) {
  if (n == 0) return;
  if (has_saved_) {
    has_saved_ = false;
    *out++ = saved_;
    --n;
  }
#if defined(DPAUDIT_X86_DISPATCH)
  if (use_avx2) {
    DPAUDIT_CHECK(HasAvx2());
    FillPolarAvx2(engine_.words_, engine_.index_, out, n, saved_, has_saved_);
    return;
  }
#else
  DPAUDIT_CHECK(!use_avx2);
#endif
  FillPolarBody(engine_.words_, engine_.index_, out, n, saved_, has_saved_);
}

double Rng::Laplace(double scale) {
  DPAUDIT_CHECK_GE(scale, 0.0);
  // Inverse CDF: u ~ Uniform(-1/2, 1/2), x = -scale * sgn(u) * ln(1 - 2|u|).
  double u = Uniform() - 0.5;
  double sign = u < 0.0 ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  // Fisher-Yates.
  for (size_t i = n; i > 1; --i) {
    size_t j = UniformInt(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  DPAUDIT_CHECK_LE(k, n);
  std::vector<size_t> perm = Permutation(n);
  perm.resize(k);
  return perm;
}

}  // namespace dpaudit
