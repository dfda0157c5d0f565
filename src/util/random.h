// Deterministic random-number generation for experiments.
//
// Every experiment in dpaudit takes an explicit seed; repetitions derive
// independent child generators with Split(), so results are reproducible
// regardless of thread scheduling.
//
// The engine and every distribution are implemented here rather than taken
// from <random>: the draw streams are specified by this file (and libm's
// log/sqrt), not by a standard library's unspecified algorithms. They are
// bit-identical to libstdc++'s std::mt19937_64 with uniform_real_distribution,
// uniform_int_distribution and normal_distribution, which produced every
// recorded trace and ledger.

#ifndef DPAUDIT_UTIL_RANDOM_H_
#define DPAUDIT_UTIL_RANDOM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpaudit {

/// MT19937-64 with the standard's parameters and seeding, so its output
/// equals std::mt19937_64 for every seed. The twist is branchless and runs
/// a 312-word block at a time. Satisfies the uniform random bit generator
/// requirements.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateSize = 312;
  static constexpr uint64_t kDefaultSeed = 5489;

  explicit Mt19937_64(uint64_t seed = kDefaultSeed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  result_type operator()() {
    if (index_ >= kStateSize) Twist();
    return Temper(words_[index_++]);
  }

  /// The output transform applied to each raw state word.
  static uint64_t Temper(uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  friend class Rng;

  // Regenerates all kStateSize words and rewinds index_.
  void Twist();

  uint64_t words_[kStateSize];
  size_t index_;
};

/// Maps one 64-bit engine output to [0, 1) exactly as
/// std::generate_canonical<double, 53> does for a 64-bit engine: u / 2^64
/// rounded once to nearest, with the rare round-up to 1.0 clamped to the
/// largest double below 1. The uint64 -> double conversion splits u into
/// 32-bit halves placed in exact magic-number doubles, and the clamp steps
/// the bit pattern of 1.0 down by one, so there is no branch and no wide
/// conversion instruction and the whole map vectorizes.
inline double CanonicalFromBits(uint64_t u) {
  const double hi =
      std::bit_cast<double>(0x4530000000000000ULL | (u >> 32)) -
      0x1.00000001p84;  // (2^84 + hi * 2^32) - (2^84 + 2^52): exact
  const double lo =
      std::bit_cast<double>(0x4330000000000000ULL | (u & 0xffffffffULL));
  // The one rounding; the scale by 2^-64 is exact.
  const uint64_t bits = std::bit_cast<uint64_t>((hi + lo) * 0x1p-64);
  return std::bit_cast<double>(
      bits - static_cast<uint64_t>(bits == 0x3ff0000000000000ULL));
}

/// A seeded pseudo-random generator over Mt19937_64 with the distributions
/// used across the library. Copyable; copies evolve independently from the
/// copied state.
class Rng {
 public:
  explicit Rng(uint64_t seed) : seed_material_(seed), engine_(Mix(seed)) {}

  /// Derives a child generator whose stream is independent of both this
  /// generator's future output and of children with other indices. Used to
  /// fan experiment repetitions out to worker threads deterministically.
  Rng Split(uint64_t index) const {
    return Rng(Mix(seed_material_ ^ (0x9e3779b97f4a7c15ULL * (index + 1))));
  }

  /// Uniform in [0, 1): one engine draw through CanonicalFromBits.
  double Uniform() { return CanonicalFromBits(engine_()); }

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Requires n > 0. Lemire's nearly-divisionless
  /// method over a 128-bit product, rejecting low halves below 2^64 mod n;
  /// it consumes one draw even for n == 1.
  uint64_t UniformInt(uint64_t n) {
    unsigned __int128 product =
        static_cast<unsigned __int128>(engine_()) * n;
    uint64_t low = static_cast<uint64_t>(product);
    if (low < n) {
      const uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(engine_()) * n;
        low = static_cast<uint64_t>(product);
      }
    }
    return static_cast<uint64_t>(product >> 64);
  }

  /// Standard normal draw by the Marsaglia polar method. Each accepted
  /// attempt yields two variates; the second is cached for the next call.
  double Gaussian();

  /// Fills out[0..n) with standard normal draws. The stream is identical to n
  /// repeated Gaussian() calls — same engine state, same values in the same
  /// order — so batched consumers (GaussianMechanism::Perturb) stay
  /// bit-identical to per-coordinate sampling. Runs the polar method a group
  /// of attempts at a time over the engine's current block, in AVX2 lanes
  /// where the CPU has them.
  void FillGaussian(double* out, size_t n);

  /// FillGaussian through one named build of its kernel: the portable one
  /// (use_avx2 = false) or the AVX2 one, which requires HasAvx2(). Only for
  /// tests that pin the two builds to each other.
  void FillGaussianForTest(double* out, size_t n, bool use_avx2);

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double Gaussian(double mean, double sigma) {
    return mean + sigma * Gaussian();
  }

  /// Laplace(0, scale) draw via inverse-CDF sampling.
  double Laplace(double scale);

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p) { return Uniform() < p; }

  /// A uniformly random permutation of {0, ..., n-1}.
  std::vector<size_t> Permutation(size_t n);

  /// k distinct indices sampled uniformly from {0, ..., n-1}, k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  // SplitMix64 finalizer: decorrelates sequential seeds.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  uint64_t seed_material_;
  Mt19937_64 engine_;
  // The polar method's second variate, already in its returned form.
  double saved_ = 0.0;
  bool has_saved_ = false;
};

}  // namespace dpaudit

#endif  // DPAUDIT_UTIL_RANDOM_H_
