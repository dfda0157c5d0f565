// Determinism and cache tests for the flattened sweep scheduler: the
// flattened (cell x repetition) dispatch must produce AuditSweepRow vectors
// bit-identical to a naive serial loop of RunDiTrial written here, for any
// DPAUDIT_THREADS, cold and warm trace cache.

#include "core/sweep_scheduler.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_audit_sweep.h"
#include "core/trace.h"
#include "dp/privacy_params.h"

namespace dpaudit {
namespace {

/// Fresh per-test cache directory under gtest's temp dir.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : path_(::testing::TempDir() + "/dpaudit_sweep_" + name) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedCacheDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bench::BenchParams TinyParams() {
  bench::BenchParams params;
  params.reps = 8;
  params.mnist_n = 8;
  params.purchase_n = 8;
  params.epochs = 3;
  params.seed = 42;
  return params;
}

void ExpectRowsBitIdentical(const std::vector<bench::AuditSweepRow>& expected,
                            const std::vector<bench::AuditSweepRow>& got) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const bench::AuditSweepRow& a = expected[i];
    const bench::AuditSweepRow& b = got[i];
    EXPECT_EQ(a.dataset, b.dataset) << "row " << i;
    EXPECT_EQ(a.target_epsilon, b.target_epsilon) << "row " << i;
    EXPECT_EQ(a.sensitivity, b.sensitivity) << "row " << i;
    // Bit-identity: exact double equality on every estimator, no tolerance.
    EXPECT_EQ(a.report.epsilon_from_sensitivities,
              b.report.epsilon_from_sensitivities)
        << "row " << i;
    EXPECT_EQ(a.report.epsilon_from_belief, b.report.epsilon_from_belief)
        << "row " << i;
    EXPECT_EQ(a.report.epsilon_from_advantage,
              b.report.epsilon_from_advantage)
        << "row " << i;
    EXPECT_EQ(a.advantage, b.advantage) << "row " << i;
    EXPECT_EQ(a.repetitions, b.repetitions) << "row " << i;
    EXPECT_EQ(a.wins, b.wins) << "row " << i;
  }
}

/// RunAuditSweep's grid for one task (epsilon x {LS, GS}, bounded
/// neighbours), each cell configured as the sweep's `configure` does, its
/// summary produced by `run_cell`, and audited into rows in grid order.
std::vector<bench::AuditSweepRow> AuditGrid(
    const bench::BenchParams& params, const bench::Task& task, size_t reps,
    const std::function<DiExperimentSummary(const DiExperimentConfig&)>&
        run_cell) {
  std::vector<bench::AuditSweepRow> rows;
  for (double epsilon : bench::EpsilonGridFor(task)) {
    for (SensitivityMode sensitivity :
         {SensitivityMode::kLocalHat, SensitivityMode::kGlobal}) {
      DiExperimentConfig config = bench::MakeScenarioConfig(
          params, task, epsilon, sensitivity, NeighborMode::kBounded);
      config.repetitions = reps;
      rows.push_back(
          bench::AuditCell(task, epsilon, sensitivity, run_cell(config)));
    }
  }
  return rows;
}

/// The naive reference: reps 0..R-1 one after another on this thread, each
/// with a single-threaded gradient engine and no trace store.
std::vector<bench::AuditSweepRow> NaiveAuditSweep(
    const bench::BenchParams& params, const bench::Task& task, size_t reps) {
  return AuditGrid(params, task, reps, [&](DiExperimentConfig config) {
    config.dpsgd.threads = 1;
    DiExperimentSummary summary;
    summary.trials.resize(config.repetitions);
    for (size_t rep = 0; rep < config.repetitions; ++rep) {
      Status st = RunDiTrial(task.architecture, task.d, task.d_prime_bounded,
                             config, rep, &summary.trials[rep]);
      EXPECT_TRUE(st.ok()) << st;
    }
    return summary;
  });
}

class SweepSchedulerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("DPAUDIT_THREADS");
    unsetenv("DPAUDIT_TRACE_CACHE");
  }
};

TEST_F(SweepSchedulerTest, FlattenedMatchesSequentialAcrossThreadsAndCache) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);

  const std::vector<bench::AuditSweepRow> reference =
      NaiveAuditSweep(params, task, /*reps=*/4);
  ASSERT_EQ(reference.size(), 8u);  // 4 epsilons x {LS, GS}

  for (const char* threads : {"1", "4", "13"}) {
    SCOPED_TRACE(std::string("DPAUDIT_THREADS=") + threads);
    setenv("DPAUDIT_THREADS", threads, 1);
    ScopedCacheDir cache(std::string("threads_") + threads);
    setenv("DPAUDIT_TRACE_CACHE", cache.path().c_str(), 1);

    // Cold cache: every cell trains through the flattened grid.
    std::vector<bench::AuditSweepRow> cold =
        bench::RunAuditSweep(params, task, /*reps_override=*/4);
    ExpectRowsBitIdentical(reference, cold);

    // Warm cache: every cell replays.
    std::vector<bench::AuditSweepRow> warm =
        bench::RunAuditSweep(params, task, /*reps_override=*/4);
    ExpectRowsBitIdentical(reference, warm);

    // RunDiExperiment, one cell at a time, replays the sweep's recordings.
    std::vector<bench::AuditSweepRow> single = AuditGrid(
        params, task, /*reps=*/4, [&](const DiExperimentConfig& config) {
          StatusOr<DiExperimentSummary> summary = RunDiExperiment(
              task.architecture, task.d, task.d_prime_bounded, config);
          EXPECT_TRUE(summary.ok()) << summary.status();
          return summary.ok() ? *summary : DiExperimentSummary{};
        });
    ExpectRowsBitIdentical(reference, single);
  }
}

TEST_F(SweepSchedulerTest, FlattenedSweepExtendsCachedPrefixes) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  setenv("DPAUDIT_THREADS", "4", 1);
  ScopedCacheDir cache("prefix");
  setenv("DPAUDIT_TRACE_CACHE", cache.path().c_str(), 1);

  // Record 3 repetitions per cell, then ask for 6: the cached prefixes
  // replay and only the tails train (prefix-extensible traces).
  bench::RunAuditSweep(params, task, /*reps_override=*/3);
  std::vector<bench::AuditSweepRow> extended =
      bench::RunAuditSweep(params, task, /*reps_override=*/6);

  ExpectRowsBitIdentical(NaiveAuditSweep(params, task, /*reps=*/6), extended);
}

TEST_F(SweepSchedulerTest, ReportsCacheOutcomesInStats) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  setenv("DPAUDIT_THREADS", "4", 1);
  ScopedCacheDir cache("stats");
  TraceStore store(cache.path());

  auto make_cell = [&](double epsilon) {
    SweepCell cell;
    cell.architecture = &task.architecture;
    cell.d = &task.d;
    cell.d_prime = &task.d_prime_bounded;
    cell.config = bench::MakeScenarioConfig(params, task, epsilon,
                                            SensitivityMode::kLocalHat,
                                            NeighborMode::kBounded);
    cell.config.repetitions = 2;
    return cell;
  };
  std::vector<SweepCell> cells = {make_cell(1.1), make_cell(2.2)};
  SweepOptions options;
  options.trace_store = &store;

  SweepStats stats;
  auto cold = RunSweep(cells, options, &stats);
  ASSERT_TRUE(cold[0].ok());
  ASSERT_TRUE(cold[1].ok());
  EXPECT_EQ(stats.cells, 2u);
  EXPECT_EQ(stats.trace_misses, 2u);
  EXPECT_EQ(stats.trials_trained, 4u);
  EXPECT_EQ(stats.trials_replayed, 0u);

  auto warm = RunSweep(cells, options, &stats);
  ASSERT_TRUE(warm[0].ok());
  EXPECT_EQ(stats.trace_full_hits, 2u);
  EXPECT_EQ(stats.trials_replayed, 4u);
  EXPECT_EQ(stats.trials_trained, 0u);

  // Raising the repetition count turns both into prefix hits.
  cells[0].config.repetitions = 3;
  cells[1].config.repetitions = 3;
  auto bigger = RunSweep(cells, options, &stats);
  ASSERT_TRUE(bigger[0].ok());
  EXPECT_EQ(stats.trace_prefix_hits, 2u);
  EXPECT_EQ(stats.trials_replayed, 4u);
  EXPECT_EQ(stats.trials_trained, 2u);
}

TEST_F(SweepSchedulerTest, SweepOptionsFromRuntimeCopiesTheRuntimeKnobs) {
  for (const char* var : {"DPAUDIT_THREADS", "DPAUDIT_TRACE_CACHE",
                          "DPAUDIT_SWEEP_CHECKPOINT", "DPAUDIT_TRIAL_RETRIES"}) {
    unsetenv(var);
  }
  // Nothing set: the plain SweepOptions defaults.
  const SweepOptions plain;
  const SweepOptions defaults = SweepOptionsFromRuntime();
  EXPECT_EQ(defaults.threads, plain.threads);
  EXPECT_EQ(defaults.trace_store, nullptr);
  EXPECT_EQ(defaults.checkpoint, plain.checkpoint);
  EXPECT_EQ(defaults.trial_retries, plain.trial_retries);

  ScopedCacheDir cache("from_runtime");
  setenv("DPAUDIT_THREADS", "3", 1);
  setenv("DPAUDIT_TRACE_CACHE", cache.path().c_str(), 1);
  setenv("DPAUDIT_SWEEP_CHECKPOINT", "run.sweep.jsonl", 1);
  setenv("DPAUDIT_TRIAL_RETRIES", "0", 1);
  const SweepOptions options = SweepOptionsFromRuntime();
  unsetenv("DPAUDIT_SWEEP_CHECKPOINT");
  unsetenv("DPAUDIT_TRIAL_RETRIES");
  EXPECT_EQ(options.threads, 3u);
  ASSERT_NE(options.trace_store, nullptr);
  EXPECT_EQ(options.trace_store->directory(), cache.path());
  EXPECT_EQ(options.checkpoint, "run.sweep.jsonl");
  EXPECT_EQ(options.trial_retries, 0u);
  // One store per directory, and it follows the options when they change.
  EXPECT_EQ(TraceStore::FromEnv(), options.trace_store);
  ScopedCacheDir other("from_runtime_other");
  setenv("DPAUDIT_TRACE_CACHE", other.path().c_str(), 1);
  ASSERT_NE(TraceStore::FromEnv(), nullptr);
  EXPECT_EQ(TraceStore::FromEnv()->directory(), other.path());
}

TEST_F(SweepSchedulerTest, SurfacesPerCellErrors) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  setenv("DPAUDIT_THREADS", "4", 1);

  SweepCell good;
  good.architecture = &task.architecture;
  good.d = &task.d;
  good.d_prime = &task.d_prime_bounded;
  good.config = bench::MakeScenarioConfig(params, task, 1.1,
                                          SensitivityMode::kLocalHat,
                                          NeighborMode::kBounded);
  good.config.repetitions = 2;

  SweepCell bad_configure = good;
  bad_configure.configure = [](DiExperimentConfig*) {
    return Status::InvalidArgument("calibration failed");
  };

  SweepCell mutates_reps = good;
  mutates_reps.configure = [](DiExperimentConfig* config) {
    config->repetitions += 1;
    return Status::Ok();
  };

  SweepCell zero_reps = good;
  zero_reps.config.repetitions = 0;

  std::vector<SweepCell> cells = {good, bad_configure, mutates_reps,
                                  zero_reps};
  auto results = RunSweep(cells);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[2].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[3].status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dpaudit
