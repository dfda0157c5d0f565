// Shared fixtures for the DPSGD / adversary / experiment tests: a tiny
// two-class dense network and small synthetic datasets that keep per-test
// wall clock in the tens of milliseconds, plus per-test scratch directories
// and a rendezvous for pinning the participants of a parallel region.

#ifndef DPAUDIT_TESTS_TEST_HELPERS_H_
#define DPAUDIT_TESTS_TEST_HELPERS_H_

#include <unistd.h>

#include <condition_variable>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>

#include "data/dataset.h"
#include "gtest/gtest.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/network.h"
#include "util/random.h"

namespace dpaudit {
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

}  // namespace testing_helpers
}  // namespace dpaudit

#endif  // DPAUDIT_TESTS_TEST_HELPERS_H_
