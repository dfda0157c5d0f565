// Runtime SIMD dispatch support for the x86-64 kernels.
//
// DPAUDIT_X86_DISPATCH is defined when the compiler can build AVX2 code paths
// behind __attribute__((target("avx2"))) regardless of the baseline -march.
// Callers check HasAvx2() or HasAvx2Fma() at runtime so the default build
// stays portable.

#ifndef DPAUDIT_UTIL_SIMD_H_
#define DPAUDIT_UTIL_SIMD_H_

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

}  // namespace dpaudit

#endif  // __x86_64__ && __GNUC__

#endif  // DPAUDIT_UTIL_SIMD_H_
