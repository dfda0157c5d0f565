// Runtime SIMD dispatch support for the x86-64 kernels.
//
// DPAUDIT_X86_DISPATCH is defined when the compiler can build AVX2 and
// AVX-512 code paths behind __attribute__((target(...))) regardless of the
// baseline -march. Callers check HasAvx2(), HasAvx2Fma() or ClipStageTier()
// at runtime so the default build stays portable.

#ifndef DPAUDIT_UTIL_SIMD_H_
#define DPAUDIT_UTIL_SIMD_H_

#include <atomic>
#include <cmath>

// Forces a shared kernel body into its target("avx2,fma") wrapper so the
// compiler constant-propagates the wrapper's literal lane count and
// auto-vectorizes the lane loops. The batched-lane kernels in nn/ are
// written once as always-inline bodies with a runtime `lanes` parameter and
// instantiated twice: a portable call and an AVX2+FMA call with lanes
// pinned to the vector width.
#if defined(__GNUC__)
#define DPAUDIT_LANE_INLINE inline __attribute__((always_inline))
#else
#define DPAUDIT_LANE_INLINE inline
#endif

namespace dpaudit {

// acc + a * b where a and b are floats widened to double. Their product has
// at most 48 significant bits, so it is exact in double, and a fused
// multiply-add (one rounding) returns exactly what the separate multiply and
// add (the multiply rounds nothing) return: the result is bit-identical
// either way. Lane bodies instantiate kFused = true only inside
// target("avx2,fma") wrappers, where std::fma is one vfmadd instruction.
// Products that may round (float * float in float, or a double difference
// squared) never go through here: the build passes -ffp-contract=off so the
// compiler cannot fuse them behind the code's back.
template <bool kFused>
DPAUDIT_LANE_INLINE double AddExactProduct(double acc, double a, double b) {
  if constexpr (kFused) {
    return std::fma(a, b, acc);
  } else {
    return acc + a * b;
  }
}

}  // namespace dpaudit

#if defined(__x86_64__) && defined(__GNUC__)
#define DPAUDIT_X86_DISPATCH 1
#include <immintrin.h>

namespace dpaudit {

inline bool HasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

// The lane kernels' fast wrappers need both: AVX2 for the 8-lane vectors and
// FMA for AddExactProduct<true>.
inline bool HasAvx2Fma() {
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
}

// The clip stage's zmm kernels are built for target("avx2,fma,avx512f").
// __builtin_cpu_supports reports avx512f only when the OS also saves the
// zmm state (XCR0), so a true result means the kernels can run.
inline bool HasAvx512() {
  static const bool has = HasAvx2Fma() && __builtin_cpu_supports("avx512f");
  return has;
}

}  // namespace dpaudit

#endif  // __x86_64__ && __GNUC__

namespace dpaudit {

/// The clip stage's kernel bodies (nn/gradient_engine.cc), slowest first:
/// portable, AVX2+FMA (8 lanes as two ymm halves) and AVX-512 (8 lanes in
/// one zmm). All three give bit-identical results.
enum class SimdTier { kScalar = 0, kAvx2Fma = 1, kAvx512 = 2 };

/// The highest tier this CPU runs.
inline SimdTier DetectedSimdTier() {
#if defined(DPAUDIT_X86_DISPATCH)
  if (HasAvx512()) return SimdTier::kAvx512;
  if (HasAvx2Fma()) return SimdTier::kAvx2Fma;
#endif
  return SimdTier::kScalar;
}

namespace simd_internal {
/// ScopedSimdTierCapForTest's cap; kAvx512 caps nothing.
inline std::atomic<SimdTier>& TierCap() {
  static std::atomic<SimdTier> cap{SimdTier::kAvx512};
  return cap;
}
}  // namespace simd_internal

/// The tier the clip stage runs: DetectedSimdTier(), lowered only by a
/// ScopedSimdTierCapForTest.
inline SimdTier ClipStageTier() {
  const SimdTier cap = simd_internal::TierCap().load();
  const SimdTier detected = DetectedSimdTier();
  return cap < detected ? cap : detected;
}

/// "scalar", "avx2" (AVX2+FMA) or "avx512".
inline const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kAvx2Fma:
      return "avx2";
    case SimdTier::kScalar:
      break;
  }
  return "scalar";
}

/// Caps ClipStageTier() at `cap` for its lifetime, so tests run every body
/// the host supports, not only its fastest. Only for tests: set it before
/// constructing the engines under test, which read the tier once.
class ScopedSimdTierCapForTest {
 public:
  explicit ScopedSimdTierCapForTest(SimdTier cap)
      : previous_(simd_internal::TierCap().exchange(cap)) {}
  ~ScopedSimdTierCapForTest() { simd_internal::TierCap().store(previous_); }
  ScopedSimdTierCapForTest(const ScopedSimdTierCapForTest&) = delete;
  ScopedSimdTierCapForTest& operator=(const ScopedSimdTierCapForTest&) =
      delete;

 private:
  SimdTier previous_;
};

}  // namespace dpaudit

#endif  // DPAUDIT_UTIL_SIMD_H_
