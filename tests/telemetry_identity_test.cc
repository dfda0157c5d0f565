// The telemetry determinism contract: instrumenting the pipeline must not
// perturb a single bit of experiment output. Telemetry reads only the
// monotonic clock and its own atomics — never the RNG stream or any
// floating-point accumulation order — so a fig09-style experiment must
// produce EXACTLY the same trials with telemetry on and off.

#include <sstream>
#include <vector>

#include "core/experiment.h"
#include "dp/privacy_params.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "tests/test_helpers.h"
#include "util/logging.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ExpectSummariesBitIdentical;
using testing_helpers::ExtremeBoundedNeighbor;
using testing_helpers::TinyNetwork;

DiExperimentConfig SmallAuditConfig() {
  // Shaped like one fig09 grid cell: multi-step DPSGD, parallel
  // repetitions, local-hat sensitivity so the sigma schedule is data
  // dependent.
  DiExperimentConfig config;
  config.dpsgd.epochs = 6;
  config.dpsgd.learning_rate = 0.05;
  config.dpsgd.clip_norm = 1.0;
  config.dpsgd.noise_multiplier = 0.8;
  config.dpsgd.sensitivity_mode = SensitivityMode::kLocalHat;
  config.repetitions = 12;
  config.threads = 4;
  config.seed = 1234;
  return config;
}

DiExperimentSummary RunOnce(bool telemetry) {
  obs::EnableTelemetryForTest(telemetry);
  Rng rng(7);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 6.0f);
  auto summary = RunDiExperiment(net, d, d_prime, SmallAuditConfig());
  obs::EnableTelemetryForTest(false);
  DPAUDIT_CHECK_OK(summary.status());
  return *summary;
}

class TelemetryIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SpanRegistry::Global().ResetForTest();
    obs::MetricsRegistry::Global().ResetForTest();
  }
  void TearDown() override {
    obs::EnableTelemetryForTest(false);
    obs::SpanRegistry::Global().ResetForTest();
    obs::MetricsRegistry::Global().ResetForTest();
  }
};

TEST_F(TelemetryIdentityTest, ExperimentBitIdenticalWithTelemetryOnAndOff) {
  DiExperimentSummary off = RunOnce(/*telemetry=*/false);
  DiExperimentSummary on = RunOnce(/*telemetry=*/true);
  DiExperimentSummary off_again = RunOnce(/*telemetry=*/false);
  ExpectSummariesBitIdentical(off, on);
  ExpectSummariesBitIdentical(off, off_again);
}

TEST_F(TelemetryIdentityTest, InstrumentedRunPopulatesTheProfileTree) {
  RunOnce(/*telemetry=*/true);
  std::vector<obs::SpanRegistry::Stat> stats =
      obs::SpanRegistry::Global().Collect();
  auto has = [&stats](const std::string& path) {
    for (const auto& s : stats) {
      if (s.path == path) return true;
    }
    return false;
  };
  // A single experiment is a one-cell sweep, so its tree is the sweep's.
  EXPECT_TRUE(has("sweep_schedule"));
  EXPECT_TRUE(has("sweep_schedule/sweep_cell_prep"));
  EXPECT_TRUE(has("sweep_schedule/repetition"));
  EXPECT_TRUE(has("sweep_schedule/repetition/train_step"));
  EXPECT_TRUE(
      has("sweep_schedule/repetition/train_step/per_example_gradients"));
  EXPECT_TRUE(has("sweep_schedule/repetition/train_step/mechanism_perturb"));
  EXPECT_TRUE(has("sweep_schedule/repetition/train_step/adversary"));
  EXPECT_TRUE(has("sweep_schedule/repetition/train_step/optimizer_step"));

  // The pipeline counters moved too.
  bool saw_steps = false;
  for (const auto& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.name == "dpaudit_train_steps_total") {
      saw_steps = true;
      EXPECT_DOUBLE_EQ(m.value, 12.0 * 6.0);  // repetitions x epochs
    }
  }
  EXPECT_TRUE(saw_steps);
}

TEST_F(TelemetryIdentityTest, UninstrumentedRunLeavesRegistriesEmpty) {
  RunOnce(/*telemetry=*/false);
  EXPECT_TRUE(obs::SpanRegistry::Global().Collect().empty());
  // Only unconditional counters (trace cache, absent here) could move; the
  // gated pipeline metrics must not. They may be listed at zero: a reset
  // keeps metrics registered by earlier tests in this process.
  for (const auto& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.name.find("dpaudit_train") == std::string::npos) continue;
    EXPECT_EQ(m.value, 0.0) << m.name;
    EXPECT_EQ(m.summary.count(), 0u) << m.name;
  }
}

TEST_F(TelemetryIdentityTest, ProfileReportRendersTheTree) {
  RunOnce(/*telemetry=*/true);
  std::ostringstream os;
  obs::WriteProfileReport(os, obs::SpanRegistry::Global().RootTotalNs());
  const std::string report = os.str();
  EXPECT_NE(report.find("sweep_schedule"), std::string::npos);
  EXPECT_NE(report.find("train_step"), std::string::npos);
  EXPECT_NE(report.find("span coverage"), std::string::npos);
}

}  // namespace
}  // namespace dpaudit
