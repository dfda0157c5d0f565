// Sweep checkpoint journal: row encode/decode bit-exactness (NaN/Inf
// included), digest verification, manifest provenance, torn-tail recovery,
// duplicate-row semantics, and strict parsing after concurrent appends.

#include "core/sweep_journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/dpsgd.h"
#include "core/trace.h"
#include "tests/test_helpers.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace {

using testing_helpers::ExpectTrialsBitIdentical;

/// A trial record with awkward doubles: denormals, negatives, NaN, ±inf, and
/// values that need all 17 significant digits.
DiTrialResult AwkwardTrace(uint64_t salt) {
  DiTrialResult trace;
  trace.trained_on_d = (salt % 2) == 0;
  trace.adversary_says_d = (salt % 3) == 0;
  trace.final_belief_d = 0.1 + 1e-17 * static_cast<double>(salt);
  trace.max_belief_d = 1.0 / 3.0 + static_cast<double>(salt);
  trace.test_accuracy = salt == 0 ? -1.0 : 0.5 + 1e-9;
  trace.belief_history = {0.5, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          5e-324, -0.0};
  for (size_t i = 0; i < 3; ++i) {
    StepRecord step;
    step.clip_norm = 3.0;
    step.local_sensitivity = 1e-300 * static_cast<double>(i + 1);
    step.sensitivity_used = 0.1234567890123456789;
    step.sigma = 1.772453850905516;
    step.log_density_d = -1234.5678901234567;
    step.log_density_dprime = -1234.5678901234568;
    step.belief_d = static_cast<double>(salt + i) / 7.0;
    trace.steps.push_back(step);
  }
  return trace;
}

TraceFingerprint Fp(const std::string& hex32) {
  StatusOr<TraceFingerprint> fp = TraceFingerprint::FromHex(hex32);
  EXPECT_TRUE(fp.ok()) << hex32;
  return *fp;
}

class SweepJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("DPAUDIT_FAULT_INJECT");
    fault::ClearFaultSpecForTest();
    dir_ =
        testing_helpers::UniqueTestTempDir("dpaudit_sweep_journal").string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::ClearFaultSpecForTest();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(SweepJournalTest, TrialRowRoundTripsBitExactly) {
  const TraceFingerprint key = Fp("0123456789abcdef0123456789abcdef");
  const DiTrialResult trace = AwkwardTrace(1);
  const std::string row = EncodeJournalTrialRow(key, 7, 42, trace);

  std::string fp_hex;
  uint64_t rep = 0;
  uint64_t seed = 0;
  DiTrialResult decoded;
  ASSERT_TRUE(DecodeJournalTrialRow(row, &fp_hex, &rep, &seed, &decoded));
  EXPECT_EQ(fp_hex, key.ToHex());
  EXPECT_EQ(rep, 7u);
  EXPECT_EQ(seed, 42u);
  ExpectTrialsBitIdentical(trace, decoded);
}

TEST_F(SweepJournalTest, TamperedRowsFailTheDigest) {
  const TraceFingerprint key = Fp("0123456789abcdef0123456789abcdef");
  const std::string row = EncodeJournalTrialRow(key, 0, 1, AwkwardTrace(2));
  std::string fp_hex;
  uint64_t rep = 0;
  uint64_t seed = 0;
  DiTrialResult decoded;
  ASSERT_TRUE(DecodeJournalTrialRow(row, &fp_hex, &rep, &seed, &decoded));

  // Flip one payload character: the digest must catch it.
  std::string tampered = row;
  const size_t where = row.find("\"rep\":0");
  ASSERT_NE(where, std::string::npos);
  tampered[where + 6] = '1';
  EXPECT_FALSE(
      DecodeJournalTrialRow(tampered, &fp_hex, &rep, &seed, &decoded));
  EXPECT_FALSE(DecodeJournalTrialRow("", &fp_hex, &rep, &seed, &decoded));
  EXPECT_FALSE(
      DecodeJournalTrialRow("{\"kind\":\"trial\"}", &fp_hex, &rep, &seed,
                            &decoded));
}

TEST_F(SweepJournalTest, OpenWritesTheManifestAndTakeServesLoadedRows) {
  const std::string path = Path("run.sweep.jsonl");
  const char* argv[] = {"bench_fig08", "--telemetry=tele", "--threads=4"};
  RecordCommandLineForJournal(3, const_cast<char* const*>(argv));
  const TraceFingerprint key = Fp("00112233445566778899aabbccddeeff");
  const DiTrialResult trace = AwkwardTrace(3);
  {
    StatusOr<std::unique_ptr<SweepJournal>> journal = SweepJournal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status();
    EXPECT_EQ((*journal)->loaded_trials(), 0u);
    DiTrialResult missing;
    EXPECT_FALSE((*journal)->Take(key, 0, &missing));
    (*journal)->AppendTrial(key, 0, 42, trace);
    (*journal)->AppendTrial(key, 3, 42, AwkwardTrace(4));
  }

  StatusOr<LoadedSweepJournal> loaded = LoadSweepJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->has_manifest);
  EXPECT_EQ(loaded->manifest.schema_version, kSweepJournalSchemaVersion);
  EXPECT_EQ(loaded->manifest.binary, "bench_fig08");
  EXPECT_EQ(loaded->manifest.args,
            (std::vector<std::string>{"--telemetry=tele", "--threads=4"}));
  EXPECT_FALSE(loaded->manifest.cwd.empty());
  EXPECT_EQ(loaded->trial_rows, 2u);
  EXPECT_EQ(loaded->dropped_rows, 0u);
  EXPECT_FALSE(loaded->torn_tail);
  ASSERT_EQ(loaded->trials.count(key.ToHex()), 1u);
  ExpectTrialsBitIdentical(trace, loaded->trials[key.ToHex()][0]);

  // Re-open: the journal hands the recorded trials out through Take. A
  // second Take of the same row copies it from where the first one put it.
  StatusOr<std::unique_ptr<SweepJournal>> reopened = SweepJournal::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->loaded_trials(), 2u);
  DiTrialResult first;
  ASSERT_TRUE((*reopened)->Take(key, 0, &first));
  ExpectTrialsBitIdentical(trace, first);
  DiTrialResult second;
  ASSERT_TRUE((*reopened)->Take(key, 0, &second));
  ExpectTrialsBitIdentical(trace, second);
  DiTrialResult absent;
  EXPECT_FALSE((*reopened)->Take(key, 1, &absent));
}

TEST_F(SweepJournalTest, TornTailIsTruncatedOnReopen) {
  const std::string path = Path("torn.sweep.jsonl");
  const TraceFingerprint key = Fp("00112233445566778899aabbccddeeff");
  {
    StatusOr<std::unique_ptr<SweepJournal>> journal = SweepJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    (*journal)->AppendTrial(key, 0, 42, AwkwardTrace(5));
  }
  {
    // Crash mid-append: half a row, no newline.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "{\"kind\":\"trial\",\"fp\":\"0011";
    std::fwrite(torn, 1, sizeof(torn) - 1, f);
    std::fclose(f);
  }
  StatusOr<LoadedSweepJournal> before = LoadSweepJournal(path);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->torn_tail);
  EXPECT_EQ(before->trial_rows, 1u);

  {
    StatusOr<std::unique_ptr<SweepJournal>> journal = SweepJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ((*journal)->loaded_trials(), 1u);
    (*journal)->AppendTrial(key, 1, 42, AwkwardTrace(6));
  }
  StatusOr<LoadedSweepJournal> after = LoadSweepJournal(path);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->torn_tail);
  EXPECT_EQ(after->trial_rows, 2u);
  EXPECT_EQ(after->dropped_rows, 0u);
}

TEST_F(SweepJournalTest, CorruptMiddleRowIsDroppedNotFatal) {
  const std::string path = Path("corrupt.sweep.jsonl");
  const TraceFingerprint key = Fp("00112233445566778899aabbccddeeff");
  AppendLog log;
  ASSERT_TRUE(log.Open(path).ok());
  ASSERT_TRUE(log.Append(EncodeJournalTrialRow(key, 0, 1, AwkwardTrace(0)))
                  .ok());
  std::string bad = EncodeJournalTrialRow(key, 1, 1, AwkwardTrace(1));
  bad[bad.size() / 2] ^= 1;  // corrupt the middle of the payload
  ASSERT_TRUE(log.Append(bad).ok());
  ASSERT_TRUE(log.Append(EncodeJournalTrialRow(key, 2, 1, AwkwardTrace(2)))
                  .ok());
  log.Close();

  StatusOr<LoadedSweepJournal> loaded = LoadSweepJournal(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->trial_rows, 2u);
  EXPECT_EQ(loaded->dropped_rows, 1u);
  EXPECT_EQ(loaded->trials[key.ToHex()].count(0), 1u);
  EXPECT_EQ(loaded->trials[key.ToHex()].count(1), 0u);  // the corrupt row
  EXPECT_EQ(loaded->trials[key.ToHex()].count(2), 1u);
}

TEST_F(SweepJournalTest, LaterDuplicateRowsWin) {
  const std::string path = Path("dup.sweep.jsonl");
  const TraceFingerprint key = Fp("00112233445566778899aabbccddeeff");
  AppendLog log;
  ASSERT_TRUE(log.Open(path).ok());
  ASSERT_TRUE(log.Append(EncodeJournalTrialRow(key, 0, 1, AwkwardTrace(0)))
                  .ok());
  const DiTrialResult winner = AwkwardTrace(9);
  ASSERT_TRUE(log.Append(EncodeJournalTrialRow(key, 0, 1, winner)).ok());
  log.Close();

  StatusOr<LoadedSweepJournal> loaded = LoadSweepJournal(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->trial_rows, 2u);
  ExpectTrialsBitIdentical(winner, loaded->trials[key.ToHex()][0]);
}

TEST_F(SweepJournalTest, InjectedWriteFailureDisablesAppendsNotTheSweep) {
  const std::string path = Path("fail.sweep.jsonl");
  ASSERT_TRUE(fault::SetFaultSpec("journal-write=2").ok());
  const TraceFingerprint key = Fp("00112233445566778899aabbccddeeff");
  {
    StatusOr<std::unique_ptr<SweepJournal>> journal = SweepJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    (*journal)->AppendTrial(key, 0, 1, AwkwardTrace(0));  // lands
    (*journal)->AppendTrial(key, 1, 1, AwkwardTrace(1));  // injected failure
    (*journal)->AppendTrial(key, 2, 1, AwkwardTrace(2));  // appends disabled
  }
  StatusOr<LoadedSweepJournal> loaded = LoadSweepJournal(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->trial_rows, 1u);
  EXPECT_EQ(loaded->trials[key.ToHex()].count(0), 1u);
}

TEST_F(SweepJournalTest, ConcurrentAppendsSurviveStrictParsing) {
  const std::string path = Path("concurrent.sweep.jsonl");
  StatusOr<std::unique_ptr<SweepJournal>> journal = SweepJournal::Open(path);
  ASSERT_TRUE(journal.ok());
  // 13 workers appending full trial rows concurrently (the journal's real
  // write pattern: pool workers completing trials in any order). Every row
  // must re-parse under the strict digest check — one interleaved byte and
  // the digest fails.
  constexpr size_t kCells = 4;
  constexpr size_t kReps = 26;
  std::vector<TraceFingerprint> keys;
  for (size_t c = 0; c < kCells; ++c) {
    std::string hex = "00112233445566778899aabbccddeeff";
    hex[0] = static_cast<char>('0' + c);
    keys.push_back(Fp(hex));
  }
  ThreadPool::ParallelFor(kCells * kReps, 13, [&](size_t i) {
    const size_t cell = i / kReps;
    const uint64_t rep = i % kReps;
    (*journal)->AppendTrial(keys[cell], rep, 42, AwkwardTrace(i));
  });
  journal->reset();  // close the log

  StatusOr<LoadedSweepJournal> loaded = LoadSweepJournal(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dropped_rows, 0u);
  EXPECT_FALSE(loaded->torn_tail);
  EXPECT_EQ(loaded->trial_rows, kCells * kReps);
  for (size_t c = 0; c < kCells; ++c) {
    ASSERT_EQ(loaded->trials[keys[c].ToHex()].size(), kReps);
    for (uint64_t rep = 0; rep < kReps; ++rep) {
      ExpectTrialsBitIdentical(AwkwardTrace(c * kReps + rep),
                              loaded->trials[keys[c].ToHex()][rep]);
    }
  }
}

}  // namespace
}  // namespace dpaudit
