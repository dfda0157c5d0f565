// Crash-safe sweep resume and failure isolation: a sweep re-launched against
// its checkpoint journal skips completed trials and reproduces the
// uninterrupted run bit-for-bit; trials failed under the retry budget change
// nothing; trials failed over the budget degrade their cell to a
// partial-repetition estimate instead of sinking the sweep.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/sweep_scheduler.h"
#include "dp/privacy_params.h"
#include "io/append_log.h"
#include "tests/test_helpers.h"
#include "util/fault_injection.h"

namespace dpaudit {
namespace {
using testing_helpers::ExpectSummariesBitIdentical;

/// Fresh per-test journal directory under gtest's temp dir.
class ScopedJournalDir {
 public:
  explicit ScopedJournalDir(const std::string& name)
      : path_(::testing::TempDir() + "/dpaudit_resume_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedJournalDir() { std::filesystem::remove_all(path_); }
  std::string Journal() const { return path_ + "/run.sweep.jsonl"; }

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

class SweepResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    unsetenv("DPAUDIT_TRACE_CACHE");
    unsetenv("DPAUDIT_SWEEP_CHECKPOINT");
  }
  void SetUp() override {
    unsetenv("DPAUDIT_FAULT_INJECT");
    fault::ClearFaultSpecForTest();
  }
  void TearDown() override {
    unsetenv("DPAUDIT_THREADS");
    fault::ClearFaultSpecForTest();
  }

  /// Two-cell sweep over the tiny MNIST task, 3 repetitions each.
  std::vector<SweepCell> MakeCells(const bench::Task& task,
                                   const bench::BenchParams& params) {
    auto make_cell = [&](double epsilon) {
      SweepCell cell;
      cell.architecture = &task.architecture;
      cell.d = &task.d;
      cell.d_prime = &task.d_prime_bounded;
      cell.config = bench::MakeScenarioConfig(params, task, epsilon,
                                              SensitivityMode::kLocalHat,
                                              NeighborMode::kBounded);
      cell.config.repetitions = 3;
      return cell;
    };
    return {make_cell(1.1), make_cell(2.2)};
  }
};

TEST_F(SweepResumeTest, SecondRunResumesEveryTrialFromTheJournal) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  std::vector<SweepCell> cells = MakeCells(task, params);
  ScopedJournalDir dir("full");

  SweepOptions options;
  options.checkpoint = dir.Journal();
  SweepStats first_stats;
  auto first = RunSweep(cells, options, &first_stats);
  ASSERT_TRUE(first[0].ok()) << first[0].status();
  ASSERT_TRUE(first[1].ok()) << first[1].status();
  EXPECT_EQ(first_stats.trials_trained, 6u);
  EXPECT_EQ(first_stats.trials_resumed, 0u);

  SweepStats second_stats;
  auto second = RunSweep(cells, options, &second_stats);
  ASSERT_TRUE(second[0].ok());
  ASSERT_TRUE(second[1].ok());
  EXPECT_EQ(second_stats.trials_resumed, 6u);
  EXPECT_EQ(second_stats.trials_trained, 0u);
  EXPECT_EQ(second_stats.trials_failed, 0u);
  ASSERT_EQ(second_stats.per_cell.size(), 2u);
  EXPECT_EQ(second_stats.per_cell[0].resumed, 3u);
  EXPECT_EQ(second_stats.per_cell[1].resumed, 3u);
  ExpectSummariesBitIdentical(*first[0], *second[0]);
  ExpectSummariesBitIdentical(*first[1], *second[1]);
}

TEST_F(SweepResumeTest, CellsSharingAFingerprintBothResume) {
  // The journal moves each row out to the first cell that takes it; a second
  // cell with the same fingerprint must still resume every trial, not
  // retrain, and both must match the uninterrupted run bit for bit.
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  std::vector<SweepCell> cells = MakeCells(task, params);
  cells.push_back(cells[0]);
  ScopedJournalDir dir("shared_fingerprint");

  SweepOptions options;
  options.checkpoint = dir.Journal();
  auto reference = RunSweep(cells, options);
  for (const auto& result : reference) ASSERT_TRUE(result.ok());

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    SweepStats stats;
    auto resumed = RunSweep(cells, options, &stats);
    EXPECT_EQ(stats.trials_trained, 0u);
    EXPECT_EQ(stats.trials_resumed, 9u);
    ASSERT_EQ(stats.per_cell.size(), 3u);
    EXPECT_EQ(stats.per_cell[0].resumed, 3u);
    EXPECT_EQ(stats.per_cell[2].resumed, 3u);
    for (size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(resumed[i].ok()) << resumed[i].status();
      ExpectSummariesBitIdentical(*reference[i], *resumed[i]);
    }
    ExpectSummariesBitIdentical(*resumed[0], *resumed[2]);
  }
}

TEST_F(SweepResumeTest, PartialJournalResumesOnlyTheCompletedTrials) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  std::vector<SweepCell> cells = MakeCells(task, params);
  ScopedJournalDir dir("partial");

  SweepOptions options;
  options.checkpoint = dir.Journal();
  auto reference = RunSweep(cells, options);
  ASSERT_TRUE(reference[0].ok());
  ASSERT_TRUE(reference[1].ok());

  // Simulate a crash after two trials: keep the manifest and the first two
  // trial rows, drop the rest (AppendTrial fsyncs per line, so a real kill
  // leaves exactly a prefix of rows plus at most one torn tail).
  StatusOr<AppendLogContents> contents = ReadLogLines(dir.Journal());
  ASSERT_TRUE(contents.ok());
  std::vector<std::string> kept;
  size_t trial_rows = 0;
  for (const std::string& line : contents->lines) {
    const bool is_trial = line.find("\"kind\":\"trial\"") != std::string::npos;
    if (is_trial && ++trial_rows > 2) continue;
    kept.push_back(line);
  }
  ASSERT_EQ(trial_rows, 6u);
  {
    std::FILE* f = std::fopen(dir.Journal().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (const std::string& line : kept) {
      std::fwrite(line.data(), 1, line.size(), f);
      std::fwrite("\n", 1, 1, f);
    }
    std::fclose(f);
  }

  SweepStats stats;
  auto resumed = RunSweep(cells, options, &stats);
  ASSERT_TRUE(resumed[0].ok());
  ASSERT_TRUE(resumed[1].ok());
  EXPECT_EQ(stats.trials_resumed, 2u);
  EXPECT_EQ(stats.trials_trained, 4u);
  ExpectSummariesBitIdentical(*reference[0], *resumed[0]);
  ExpectSummariesBitIdentical(*reference[1], *resumed[1]);
}

TEST_F(SweepResumeTest, FailuresUnderTheRetryBudgetChangeNothing) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  std::vector<SweepCell> cells = MakeCells(task, params);

  auto reference = RunSweep(cells);
  ASSERT_TRUE(reference[0].ok());
  ASSERT_TRUE(reference[1].ok());

  // Every trial's first attempt fails; the budget allows 2 retries, so every
  // trial succeeds on attempt 2 with bit-identical results.
  ASSERT_TRUE(fault::SetFaultSpec("trial=*:*:1").ok());
  SweepOptions options;
  options.trial_retries = 2;
  options.retry_backoff_ms = 0;
  SweepStats stats;
  auto retried = RunSweep(cells, options, &stats);
  ASSERT_TRUE(retried[0].ok()) << retried[0].status();
  ASSERT_TRUE(retried[1].ok());
  EXPECT_EQ(stats.trials_retried, 6u);
  EXPECT_EQ(stats.trials_failed, 0u);
  EXPECT_EQ(stats.cells_degraded, 0u);
  ExpectSummariesBitIdentical(*reference[0], *retried[0]);
  ExpectSummariesBitIdentical(*reference[1], *retried[1]);
}

TEST_F(SweepResumeTest, ExhaustedRetriesDegradeTheCellNotTheSweep) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  std::vector<SweepCell> cells = MakeCells(task, params);

  // (cell 0, rep 1) fails 3 times; the budget allows 1 retry = 2 attempts.
  ASSERT_TRUE(fault::SetFaultSpec("trial=0:1:3").ok());
  SweepOptions options;
  options.trial_retries = 1;
  options.retry_backoff_ms = 0;
  SweepStats stats;
  auto results = RunSweep(cells, options, &stats);
  ASSERT_TRUE(results[0].ok()) << results[0].status();  // degraded, not error
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[0]->trials.size(), 2u);  // reps 0 and 2 survive, in order
  EXPECT_EQ(results[1]->trials.size(), 3u);
  EXPECT_EQ(stats.trials_failed, 1u);
  EXPECT_EQ(stats.trials_retried, 1u);
  EXPECT_EQ(stats.cells_degraded, 1u);
  ASSERT_EQ(stats.per_cell.size(), 2u);
  EXPECT_EQ(stats.per_cell[0].failed, 1u);
  EXPECT_EQ(stats.per_cell[0].trained, 2u);
  EXPECT_EQ(stats.per_cell[1].failed, 0u);
}

TEST_F(SweepResumeTest, ResumeAfterDegradationRetrainsOnlyTheFailedRep) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  std::vector<SweepCell> cells = MakeCells(task, params);
  ScopedJournalDir dir("degraded");

  auto reference = RunSweep(cells);
  ASSERT_TRUE(reference[0].ok());
  ASSERT_TRUE(reference[1].ok());

  // First run: (cell 0, rep 1) exhausts the budget; the 5 surviving trials
  // are journaled under their true rep indices.
  ASSERT_TRUE(fault::SetFaultSpec("trial=0:1:3").ok());
  SweepOptions options;
  options.checkpoint = dir.Journal();
  options.trial_retries = 0;
  options.retry_backoff_ms = 0;
  SweepStats degraded_stats;
  auto degraded = RunSweep(cells, options, &degraded_stats);
  ASSERT_TRUE(degraded[0].ok());
  EXPECT_EQ(degraded[0]->trials.size(), 2u);
  EXPECT_EQ(degraded_stats.trials_failed, 1u);

  // Second run, fault gone: exactly the failed rep retrains, the rest resume
  // from the journal, and the full summary matches the never-faulted run.
  fault::ClearFaultSpecForTest();
  SweepStats resumed_stats;
  auto resumed = RunSweep(cells, options, &resumed_stats);
  ASSERT_TRUE(resumed[0].ok());
  ASSERT_TRUE(resumed[1].ok());
  EXPECT_EQ(resumed_stats.trials_resumed, 5u);
  EXPECT_EQ(resumed_stats.trials_trained, 1u);
  EXPECT_EQ(resumed_stats.trials_failed, 0u);
  ExpectSummariesBitIdentical(*reference[0], *resumed[0]);
  ExpectSummariesBitIdentical(*reference[1], *resumed[1]);
}

TEST_F(SweepResumeTest, CellWhereEveryRepFailsKeepsTheErrorBehavior) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  std::vector<SweepCell> cells = MakeCells(task, params);

  ASSERT_TRUE(fault::SetFaultSpec("trial=0:*:5").ok());
  SweepOptions options;
  options.trial_retries = 0;
  options.retry_backoff_ms = 0;
  SweepStats stats;
  auto results = RunSweep(cells, options, &stats);
  EXPECT_EQ(results[0].status().code(), StatusCode::kInternal);
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[1]->trials.size(), 3u);
  EXPECT_EQ(stats.trials_failed, 3u);
  EXPECT_EQ(stats.cells_degraded, 0u);  // a dead cell is an error, not
                                        // a degrade
  ASSERT_EQ(stats.per_cell.size(), 2u);
  EXPECT_EQ(stats.per_cell[0].failed, 3u);
}

TEST_F(SweepResumeTest, ResumeIsThreadCountIndependent) {
  bench::BenchParams params = TinyParams();
  bench::Task task = bench::MakeMnistTask(params);
  std::vector<SweepCell> cells = MakeCells(task, params);
  ScopedJournalDir dir("threads");

  SweepOptions seed_options;
  seed_options.checkpoint = dir.Journal();
  seed_options.threads = 1;
  auto reference = RunSweep(cells, seed_options);
  ASSERT_TRUE(reference[0].ok());
  ASSERT_TRUE(reference[1].ok());

  for (const size_t threads : {size_t{4}, size_t{13}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepOptions options;
    options.checkpoint = dir.Journal();
    options.threads = threads;
    SweepStats stats;
    auto resumed = RunSweep(cells, options, &stats);
    ASSERT_TRUE(resumed[0].ok());
    ASSERT_TRUE(resumed[1].ok());
    EXPECT_EQ(stats.trials_resumed, 6u);
    EXPECT_EQ(stats.trials_trained, 0u);
    ExpectSummariesBitIdentical(*reference[0], *resumed[0]);
    ExpectSummariesBitIdentical(*reference[1], *resumed[1]);
  }
}

}  // namespace
}  // namespace dpaudit
