#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#if defined(__GLIBCXX__)
#include <random>
#endif

#include "util/simd.h"

namespace dpaudit {
namespace {

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
    EXPECT_DOUBLE_EQ(a.Gaussian(), b.Gaussian());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitIsDeterministicAndIndependentOfParentUse) {
  Rng parent1(7);
  Rng parent2(7);
  // Consuming numbers from one parent must not change its children.
  for (int i = 0; i < 10; ++i) (void)parent1.Uniform();
  Rng child1 = parent1.Split(3);
  Rng child2 = parent2.Split(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(child1.Uniform(), child2.Uniform());
  }
}

TEST(RngTest, SplitChildrenAreDistinct) {
  Rng parent(7);
  Rng a = parent.Split(0);
  Rng b = parent.Split(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    double v = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, FillGaussianMatchesRepeatedDraws) {
  // The batched fill must consume the engine identically to repeated
  // Gaussian() calls — same values, same order — so code that switches to
  // FillGaussian reproduces historical noise streams bit-for-bit. Odd sizes
  // matter: std::normal_distribution generates pairs and caches one variate.
  // 5001 spans many 312-word blocks, and a leading Uniform() draw shifts
  // every attempt to the other parity of the engine index.
  for (int skip = 0; skip < 2; ++skip) {
    for (size_t n :
         {size_t{1}, size_t{7}, size_t{64}, size_t{513}, size_t{5001}}) {
      Rng scalar_rng(123);
      Rng batch_rng(123);
      for (int k = 0; k < skip; ++k) {
        EXPECT_EQ(scalar_rng.Uniform(), batch_rng.Uniform());
      }
      std::vector<double> expected(n);
      for (double& v : expected) v = scalar_rng.Gaussian();
      std::vector<double> batched(n);
      batch_rng.FillGaussian(batched.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(batched[i]), Bits(expected[i]))
            << "skip=" << skip << " n=" << n << " i=" << i;
      }
      // And the engines stay in lockstep afterwards.
      EXPECT_EQ(batch_rng.Gaussian(), scalar_rng.Gaussian());
      EXPECT_EQ(batch_rng.Uniform(), scalar_rng.Uniform());
    }
  }
}

TEST(RngTest, UniformIntCachedDistributionTracksRangeChanges) {
  // Interleaved ranges must each stay within their own bound and cover it.
  Rng rng(31);
  std::set<uint64_t> seen_small;
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(rng.UniformInt(7), 7u);
    uint64_t small = rng.UniformInt(3);
    EXPECT_LT(small, 3u);
    seen_small.insert(small);
    EXPECT_LT(rng.UniformInt(10), 10u);
    EXPECT_EQ(rng.UniformInt(1), 0u);
  }
  EXPECT_EQ(seen_small.size(), 3u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Gaussian(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, LaplaceMoments) {
  Rng rng(19);
  const int n = 100000;
  const double scale = 1.5;
  double sum = 0.0;
  double sum_abs = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Laplace(scale);
    sum += x;
    sum_abs += std::fabs(x);
  }
  // Laplace(0, b): mean 0, E|X| = b.
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_abs / n, scale, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(23);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

class PermutationTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PermutationTest, IsAPermutation) {
  size_t n = GetParam();
  Rng rng(29 + n);
  std::vector<size_t> perm = rng.Permutation(n);
  ASSERT_EQ(perm.size(), n);
  std::vector<size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i);
}

TEST_P(PermutationTest, SampleWithoutReplacementIsDistinct) {
  size_t n = GetParam();
  if (n == 0) return;
  size_t k = n / 2 + 1 > n ? n : n / 2 + 1;
  Rng rng(31 + n);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(n, k);
  ASSERT_EQ(sample.size(), k);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), k);
  for (size_t idx : sample) EXPECT_LT(idx, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationTest,
                         ::testing::Values(0, 1, 2, 5, 17, 100, 1000));

TEST(RngTest, PermutationIsShuffled) {
  Rng rng(37);
  std::vector<size_t> perm = rng.Permutation(100);
  size_t fixed_points = 0;
  for (size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] == i) ++fixed_points;
  }
  // Expected ~1 fixed point for a uniform permutation.
  EXPECT_LT(fixed_points, 10u);
}

// ---------------------------------------------------------------------------
// The in-repo engine and distributions.

TEST(Mt19937Test, TenThousandthOutputMatchesTheStandard) {
  // [rand.predef]: the 10000th consecutive invocation of a default-constructed
  // mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine;
  for (int i = 0; i < 9999; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(RngTest, CanonicalFromBitsRoundsOnceAndClampsBelowOne) {
  EXPECT_EQ(CanonicalFromBits(0), 0.0);
  EXPECT_EQ(CanonicalFromBits(1), 0x1p-64);
  // 2^64 - 1 rounds up to 2^64, i.e. 1.0, which clamps to nextafter(1, 0).
  EXPECT_EQ(CanonicalFromBits(~uint64_t{0}), std::nextafter(1.0, 0.0));
  // Exactly halfway between two doubles: ties go to even.
  EXPECT_EQ(CanonicalFromBits((uint64_t{1} << 53) + 1), 0x1p-11);
  EXPECT_EQ(CanonicalFromBits((uint64_t{1} << 53) + 3),
            0x1p-11 + 0x1p-62);
  for (uint64_t u :
       {uint64_t{12345}, uint64_t{0x8000000000000000},
        uint64_t{0xfffffffffffff7ff}, uint64_t{0x0123456789abcdef}}) {
    EXPECT_EQ(CanonicalFromBits(u), static_cast<double>(u) * 0x1p-64) << u;
  }
}

TEST(RngTest, GoldenValuesPinTheStreamAcrossPlatforms) {
  // Hex-float goldens for one seed, recorded from libstdc++'s
  // std::mt19937_64 + normal_distribution stream that every committed trace
  // and ledger uses. They cover the engine, the polar method, the cached
  // second variate carried across other draws, and std::log/std::sqrt: a
  // platform whose libm rounds log differently fails here first.
  Rng rng(2021);
  double g[5];
  rng.FillGaussian(g, 3);
  g[3] = rng.Gaussian();
  g[4] = rng.Gaussian();
  EXPECT_EQ(g[0], -0x1.b1e55eacb0a7p-3);
  EXPECT_EQ(g[1], -0x1.be8be39e16b79p-2);
  EXPECT_EQ(g[2], -0x1.55aa2d9d09e05p-5);
  EXPECT_EQ(g[3], 0x1.379cfc15aa43fp+0);
  EXPECT_EQ(g[4], -0x1.882a08ba7964ap-2);
  EXPECT_EQ(rng.Uniform(), 0x1.3a9ac69847f8cp-1);
  EXPECT_EQ(rng.Uniform(), 0x1.5f669dae23a0cp-1);
  EXPECT_EQ(rng.Uniform(), 0x1.9631b84ad442ep-2);
  EXPECT_EQ(rng.UniformInt(1000), 453u);
  EXPECT_EQ(rng.UniformInt((uint64_t{1} << 63) + 1), 1875423702974237341u);
  double cached;
  rng.FillGaussian(&cached, 1);
  EXPECT_EQ(cached, 0x1.21e5639384b72p-1);
}

#if defined(DPAUDIT_X86_DISPATCH)
TEST(RngTest, PortableAndAvx2KernelsAgreeBitForBit) {
  if (!HasAvx2()) GTEST_SKIP() << "CPU without AVX2";
  Rng sizes(5);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng portable(seed);
    Rng avx2(seed);
    for (int fill = 0; fill < 40; ++fill) {
      const size_t n = sizes.UniformInt(fill % 8 == 0 ? 2000 : 40);
      std::vector<double> a(n);
      std::vector<double> b(n);
      portable.FillGaussianForTest(a.data(), n, /*use_avx2=*/false);
      avx2.FillGaussianForTest(b.data(), n, /*use_avx2=*/true);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(a[i]), Bits(b[i]))
            << "seed=" << seed << " fill=" << fill << " i=" << i;
      }
      ASSERT_EQ(portable.Uniform(), avx2.Uniform());
    }
  }
}
#endif

#if defined(__GLIBCXX__)
// Lockstep oracle: the libstdc++ engine and distributions that produced
// every recorded trace, ledger and figure. Rng(seed) seeds its engine with
// the SplitMix64 finalizer of the seed, restated here.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct StdOracle {
  explicit StdOracle(uint64_t engine_seed) : engine(engine_seed) {}
  static StdOracle ForRng(uint64_t seed) { return StdOracle(SplitMix64(seed)); }
  static StdOracle ForSplit(uint64_t seed, uint64_t index) {
    return ForRng(SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1))));
  }

  double Gaussian() { return normal(engine); }
  double Uniform() { return unit(engine); }
  uint64_t UniformInt(uint64_t n) {
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine);
  }

  // The oracle is the standard library's generator by design; it is what
  // the in-repo Rng must reproduce.
  std::mt19937_64 engine;  // NOLINT(dpaudit-rng): the oracle, by design
  std::normal_distribution<double> normal{0.0, 1.0};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
};

TEST(RngOracleTest, EngineMatchesStdMt19937_64) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{5489},
                        ~uint64_t{0}}) {
    Mt19937_64 ours(seed);
    StdOracle theirs(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(ours(), theirs.engine()) << "seed=" << seed << " i=" << i;
    }
  }
}

TEST(RngOracleTest, UniformAndUniformIntMatchTheStandardDistributions) {
  const uint64_t ranges[] = {1, 2, 3, 7, 10, 1000, (uint64_t{1} << 32) + 1,
                             (uint64_t{1} << 63) + 1, ~uint64_t{0}};
  Rng rng(41);
  StdOracle oracle = StdOracle::ForRng(41);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(Bits(rng.Uniform()), Bits(oracle.Uniform())) << i;
    for (uint64_t n : ranges) {
      ASSERT_EQ(rng.UniformInt(n), oracle.UniformInt(n)) << "n=" << n;
    }
  }
}

TEST(RngOracleTest, InterleavedFillsMatchTheStandardStream) {
  // Fills of random (often odd) size, so the cached second variate is
  // carried into the next call, interleaved with scalar Gaussian, Uniform
  // and UniformInt draws that move the engine index to every parity.
  Rng sizes(3);
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed);
    StdOracle oracle = StdOracle::ForRng(seed);
    for (int fill = 0; fill < 50; ++fill) {
      const size_t n = sizes.UniformInt(fill % 10 == 0 ? 1500 : 24);
      std::vector<double> got(n);
      rng.FillGaussian(got.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(oracle.Gaussian()))
            << "seed=" << seed << " fill=" << fill << " i=" << i;
      }
      ASSERT_EQ(Bits(rng.Uniform()), Bits(oracle.Uniform()));
      if (fill % 3 == 0) {
        ASSERT_EQ(Bits(rng.Gaussian()), Bits(oracle.Gaussian()));
      }
      if (fill % 4 == 1) {
        ASSERT_EQ(rng.UniformInt(17), oracle.UniformInt(17));
      }
    }
  }
}

TEST(RngOracleTest, FillStartingAtTheLastWordOfABlockStraddlesIt) {
  // 311 uniform draws leave the engine on the block's last word, so the
  // fill's first attempt pairs it with the first word of the next block.
  int straddles_accepted = 0;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(seed);
    StdOracle oracle = StdOracle::ForRng(seed);
    for (int i = 0; i < 311; ++i) {
      ASSERT_EQ(Bits(rng.Uniform()), Bits(oracle.Uniform()));
    }
    StdOracle peek = oracle;
    const double x = 2.0 * peek.Uniform() - 1.0;
    const double y = 2.0 * peek.Uniform() - 1.0;
    if (x * x + y * y <= 1.0) ++straddles_accepted;
    double got[5];
    rng.FillGaussian(got, 5);
    for (double v : got) ASSERT_EQ(Bits(v), Bits(oracle.Gaussian())) << seed;
    ASSERT_EQ(Bits(rng.Gaussian()), Bits(oracle.Gaussian()));
    ASSERT_EQ(Bits(rng.Uniform()), Bits(oracle.Uniform()));
  }
  EXPECT_GT(straddles_accepted, 0);
}

TEST(RngOracleTest, CopiesAndSplitsMatchTheStandardStream) {
  Rng rng(8);
  StdOracle oracle = StdOracle::ForRng(8);
  double head[3];
  rng.FillGaussian(head, 3);  // leaves a cached variate behind
  for (double v : head) ASSERT_EQ(Bits(v), Bits(oracle.Gaussian()));
  Rng copy = rng;
  StdOracle oracle_copy = oracle;
  std::vector<double> a(101);
  std::vector<double> b(101);
  rng.FillGaussian(a.data(), a.size());
  copy.FillGaussian(b.data(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(oracle.Gaussian())) << i;
    ASSERT_EQ(Bits(b[i]), Bits(oracle_copy.Gaussian())) << i;
  }
  for (uint64_t index : {uint64_t{0}, uint64_t{1}, uint64_t{12}}) {
    Rng child = rng.Split(index);
    StdOracle child_oracle = StdOracle::ForSplit(8, index);
    std::vector<double> c(77);
    child.FillGaussian(c.data(), c.size());
    for (double v : c) ASSERT_EQ(Bits(v), Bits(child_oracle.Gaussian()));
    ASSERT_EQ(child.UniformInt(5), child_oracle.UniformInt(5));
  }
}
#endif  // __GLIBCXX__

}  // namespace
}  // namespace dpaudit
