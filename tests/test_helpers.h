// Shared fixtures for the DPSGD / adversary / experiment tests: a tiny
// two-class dense network and small synthetic datasets that keep per-test
// wall clock in the tens of milliseconds, the sequential clipped-sum
// references the gradient engine is checked against, a bit-identity check
// for trial records, plus per-test scratch directories, scoped environment
// variables and a rendezvous for pinning the participants of a parallel
// region.

#ifndef DPAUDIT_TESTS_TEST_HELPERS_H_
#define DPAUDIT_TESTS_TEST_HELPERS_H_

#include <unistd.h>

#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/network.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/simd.h"

namespace dpaudit {

/// Names a tier in gtest output ("avx512"), not by its bytes.
inline void PrintTo(SimdTier tier, std::ostream* os) {
  *os << SimdTierName(tier);
}

namespace testing_helpers {

constexpr size_t kFeatures = 8;
constexpr size_t kClasses = 3;

/// 8 -> 6 -> 3 dense network.
inline Network TinyNetwork() {
  Network net;
  net.Add(std::make_unique<Dense>(kFeatures, 6));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(6, kClasses));
  return net;
}

/// Gaussian blobs in distinct directions: coordinate j has mean 2 when
/// j % kClasses == label, else 0 — one-hot-style class centers that a small
/// dense net separates easily.
inline Dataset BlobDataset(size_t count, Rng& rng) {
  Dataset d;
  for (size_t i = 0; i < count; ++i) {
    size_t label = i % kClasses;
    Tensor x({kFeatures});
    for (size_t j = 0; j < kFeatures; ++j) {
      double mean = (j % kClasses == label) ? 2.0 : 0.0;
      x[j] = static_cast<float>(rng.Gaussian(mean, 0.5));
    }
    d.Add(std::move(x), label);
  }
  return d;
}

/// A bounded neighbor of `d`: record 0 replaced by an out-of-distribution
/// point (all coordinates at `value`).
inline Dataset ExtremeBoundedNeighbor(const Dataset& d, float value) {
  Tensor x({kFeatures});
  x.Fill(value);
  return d.WithRecordReplaced(0, std::move(x), kClasses - 1);
}

/// The sequential reference of the engine's clipped sums: each example's
/// gradient from a width-1 lane pass (Network::PerExampleGradient), then
/// L2Norm, ClipScale and AccumulateScaled, one example after another. If
/// `norms` is non-null it receives each pre-clip norm.
inline std::vector<float> ReferenceClippedGradientSum(
    Network& net, const std::vector<Tensor>& inputs,
    const std::vector<size_t>& labels, double clip_norm,
    std::vector<double>* norms = nullptr) {
  std::vector<float> sum(net.NumParams(), 0.0f);
  if (norms != nullptr) norms->clear();
  for (size_t j = 0; j < inputs.size(); ++j) {
    const std::vector<float> grad = net.PerExampleGradient(inputs[j],
                                                           labels[j]);
    const double norm = L2Norm(grad);
    if (norms != nullptr) norms->push_back(norm);
    AccumulateScaled(sum.data(), grad.data(), sum.size(),
                     ClipScale(norm, clip_norm));
  }
  return sum;
}

/// Per-layer counterpart: each parameterized layer's slice of every
/// gradient is clipped to clip_norm / sqrt(#layers).
inline std::vector<float> ReferencePerLayerClippedGradientSum(
    Network& net, const std::vector<Tensor>& inputs,
    const std::vector<size_t>& labels, double clip_norm) {
  const std::vector<Network::ParamRange> ranges = net.LayerParamRanges();
  const double clip =
      clip_norm / std::sqrt(static_cast<double>(ranges.size()));
  std::vector<float> sum(net.NumParams(), 0.0f);
  for (size_t j = 0; j < inputs.size(); ++j) {
    const std::vector<float> grad = net.PerExampleGradient(inputs[j],
                                                           labels[j]);
    for (const Network::ParamRange& range : ranges) {
      const double norm = L2Norm(grad.data() + range.offset, range.size);
      AccumulateScaled(sum.data() + range.offset, grad.data() + range.offset,
                       range.size, ClipScale(norm, clip));
    }
  }
  return sum;
}

/// Expects two doubles to share a bit pattern; two NaNs match whatever their
/// payloads, which a text round trip may canonicalize.
inline void ExpectSameDouble(double a, double b, const std::string& what) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b)) << what;
}

/// Expects two trial records to be bit-identical: decision, beliefs, test
/// accuracy, belief history and every field of every step. Callers name the
/// trial with SCOPED_TRACE.
inline void ExpectTrialsBitIdentical(const DiTrialResult& a,
                                     const DiTrialResult& b) {
  EXPECT_EQ(a.trained_on_d, b.trained_on_d);
  EXPECT_EQ(a.adversary_says_d, b.adversary_says_d);
  ExpectSameDouble(a.final_belief_d, b.final_belief_d, "final_belief_d");
  ExpectSameDouble(a.max_belief_d, b.max_belief_d, "max_belief_d");
  ExpectSameDouble(a.test_accuracy, b.test_accuracy, "test_accuracy");
  ASSERT_EQ(a.belief_history.size(), b.belief_history.size());
  for (size_t i = 0; i < a.belief_history.size(); ++i) {
    ExpectSameDouble(a.belief_history[i], b.belief_history[i],
                     "belief_history[" + std::to_string(i) + "]");
  }
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    const std::string at = "step " + std::to_string(i);
    const StepRecord& x = a.steps[i];
    const StepRecord& y = b.steps[i];
    ExpectSameDouble(x.clip_norm, y.clip_norm, at + " clip_norm");
    ExpectSameDouble(x.local_sensitivity, y.local_sensitivity,
                     at + " local_sensitivity");
    ExpectSameDouble(x.sensitivity_used, y.sensitivity_used,
                     at + " sensitivity_used");
    ExpectSameDouble(x.sigma, y.sigma, at + " sigma");
    ExpectSameDouble(x.log_density_d, y.log_density_d, at + " log_density_d");
    ExpectSameDouble(x.log_density_dprime, y.log_density_dprime,
                     at + " log_density_dprime");
    ExpectSameDouble(x.belief_d, y.belief_d, at + " belief_d");
  }
}

/// ExpectTrialsBitIdentical over every trial of two summaries.
inline void ExpectSummariesBitIdentical(const DiExperimentSummary& a,
                                        const DiExperimentSummary& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    ExpectTrialsBitIdentical(a.trials[i], b.trials[i]);
  }
}

/// A scratch directory path unique to the running test case and process:
/// `stem`, the gtest suite and case names, and the pid. ctest -j runs every
/// case as its own process, so a fixed name lets concurrent cases delete
/// each other's files. The caller creates and removes the directory.
inline std::filesystem::path UniqueTestTempDir(const std::string& stem) {
  std::string name = stem;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name.append("_").append(info->test_suite_name());
    name.append("_").append(info->name());
  }
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized names carry slashes
  }
  name.append("_").append(std::to_string(getpid()));
  return std::filesystem::path(::testing::TempDir()) / name;
}

/// Sets an environment variable for the enclosing scope. Library code reads
/// the runtime options (core/runtime_options.h) from the environment when no
/// binary published any, so this picks the sweep policy RunDiExperiment
/// runs under: DPAUDIT_THREADS, DPAUDIT_TRACE_CACHE, DPAUDIT_SWEEP_CHECKPOINT,
/// DPAUDIT_TRIAL_RETRIES.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// Blocks each caller of Arrive() until `expected` callers have arrived.
/// A region body that arrives pins the region to one index per participant:
/// with n == width, every participant, runner tasks included, runs exactly
/// one index. Size the width from SharedThreadPool().num_threads() so every
/// runner has a worker and the rendezvous cannot deadlock.
class Rendezvous {
 public:
  explicit Rendezvous(size_t expected) : expected_(expected) {}

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ == expected_) all_arrived_.notify_all();
    all_arrived_.wait(lock, [this] { return arrived_ >= expected_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable all_arrived_;
  const size_t expected_;
  size_t arrived_ = 0;
};

/// A test run at each clip-stage kernel tier (util/simd.h): the parameter
/// caps ClipStageTier() for the test's body, so engines built there run
/// that tier's bodies. A tier the host lacks is skipped with the reason
/// printed, so the log shows which bodies ran. Instantiate with
/// INSTANTIATE_CLIP_TIERS(Suite).
class ClipTierTest : public ::testing::TestWithParam<SimdTier> {
 protected:
  void SetUp() override {
    if (GetParam() > DetectedSimdTier()) {
      GTEST_SKIP() << "this CPU lacks the " << SimdTierName(GetParam())
                   << " clip-stage kernels; their tier did not run";
    }
    cap_.emplace(GetParam());
  }

 private:
  std::optional<ScopedSimdTierCapForTest> cap_;
};

inline std::string ClipTierName(
    const ::testing::TestParamInfo<SimdTier>& info) {
  return SimdTierName(info.param);
}

#define INSTANTIATE_CLIP_TIERS(Suite)                                     \
  INSTANTIATE_TEST_SUITE_P(                                               \
      ClipTiers, Suite,                                                   \
      ::testing::Values(::dpaudit::SimdTier::kScalar,                     \
                        ::dpaudit::SimdTier::kAvx2Fma,                    \
                        ::dpaudit::SimdTier::kAvx512),                    \
      ::dpaudit::testing_helpers::ClipTierName)

}  // namespace testing_helpers
}  // namespace dpaudit

#endif  // DPAUDIT_TESTS_TEST_HELPERS_H_
