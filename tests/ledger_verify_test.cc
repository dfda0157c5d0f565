// Tests for ledger-backed epsilon' verification: a ledger written by a real
// experiment run must pass `check` (digests, belief replay, all three
// estimators recomputed from rows alone), any tampering must be named, and
// trace-cache replayed runs must emit rows byte-identical to cold runs.

#include "core/ledger_verify.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/auditor.h"
#include "core/experiment.h"
#include "obs/audit_ledger.h"
#include "tests/test_helpers.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ExtremeBoundedNeighbor;
using testing_helpers::ScopedEnv;
using testing_helpers::TinyNetwork;

constexpr double kTolerance = 1e-9;
constexpr double kDelta = 1e-3;

DiExperimentConfig FastExperiment() {
  DiExperimentConfig config;
  config.dpsgd.epochs = 4;
  config.dpsgd.learning_rate = 0.05;
  config.dpsgd.clip_norm = 1.0;
  config.dpsgd.noise_multiplier = 1.0;
  config.repetitions = 6;
  config.seed = 99;
  config.randomize_challenge_bit = true;
  return config;
}

struct Fixture {
  Fixture() : rng(1), net(TinyNetwork()) {
    net.Initialize(rng);
    d = BlobDataset(9, rng);
    d_prime = ExtremeBoundedNeighbor(d, 6.0f);
  }
  Rng rng;
  Network net;
  Dataset d;
  Dataset d_prime;
};

/// Runs one audited experiment with the ledger captured to `path`.
void WriteLedgerRun(const Fixture& f, const DiExperimentConfig& config,
                    const std::string& path) {
  std::filesystem::remove(path);
  obs::OpenAuditLedgerForTest(path);
  StatusOr<DiExperimentSummary> summary =
      RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(summary.ok()) << summary.status();
  StatusOr<AuditReport> report = AuditExperiment(*summary, kDelta);
  obs::CloseAuditLedgerForTest();
  ASSERT_TRUE(report.ok()) << report.status();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(LedgerVerify, RealRunPassesCheckAtTightTolerance) {
  Fixture f;
  const std::string path =
      ::testing::TempDir() + "/ledger_verify_pass.ledger.jsonl";
  WriteLedgerRun(f, FastExperiment(), path);

  std::ostringstream report;
  Status checked = CheckLedgerFile(path, kTolerance, report);
  EXPECT_TRUE(checked.ok()) << checked;
  EXPECT_NE(report.str().find("all checks passed"), std::string::npos)
      << report.str();
  EXPECT_NE(report.str().find("audit seq"), std::string::npos)
      << report.str();
  std::filesystem::remove(path);
}

TEST(LedgerVerify, LedgerValuesMatchInProcessAuditor) {
  // The ledger's audit row must carry the same values the in-process
  // auditor returned, not merely internally consistent ones.
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  const std::string path =
      ::testing::TempDir() + "/ledger_verify_match.ledger.jsonl";

  StatusOr<DiExperimentSummary> summary =
      RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(summary.ok()) << summary.status();
  StatusOr<AuditReport> expected = AuditExperiment(*summary, kDelta);
  ASSERT_TRUE(expected.ok()) << expected.status();

  WriteLedgerRun(f, config, path);
  StatusOr<obs::LedgerFile> ledger = obs::LoadLedgerFile(path);
  ASSERT_TRUE(ledger.ok()) << ledger.status();
  ASSERT_EQ(ledger->audits.size(), 1u);
  EXPECT_EQ(ledger->audits[0].epsilon_from_sensitivities,
            expected->epsilon_from_sensitivities);
  EXPECT_EQ(ledger->audits[0].epsilon_from_belief,
            expected->epsilon_from_belief);
  EXPECT_EQ(ledger->audits[0].epsilon_from_advantage,
            expected->epsilon_from_advantage);
  std::filesystem::remove(path);
}

TEST(LedgerVerify, TamperedBeliefFailsCheckNamingTheRow) {
  Fixture f;
  const std::string path =
      ::testing::TempDir() + "/ledger_verify_tamper.ledger.jsonl";
  WriteLedgerRun(f, FastExperiment(), path);

  StatusOr<obs::LedgerFile> ledger = obs::LoadLedgerFile(path);
  ASSERT_TRUE(ledger.ok()) << ledger.status();
  ASSERT_FALSE(ledger->experiments.empty());
  ledger->experiments[0].trials[0].final_belief_d += 1e-6;

  std::ostringstream report;
  Status checked = CheckLedger(*ledger, kTolerance, report);
  ASSERT_FALSE(checked.ok());
  // The digest covers final_belief_d, so the tamper surfaces there first.
  EXPECT_NE(checked.message().find("digest mismatch"), std::string::npos)
      << checked;
  std::filesystem::remove(path);
}

TEST(LedgerVerify, TamperedStepDensityFailsBeliefReplay) {
  Fixture f;
  const std::string path =
      ::testing::TempDir() + "/ledger_verify_density.ledger.jsonl";
  WriteLedgerRun(f, FastExperiment(), path);

  StatusOr<obs::LedgerFile> ledger = obs::LoadLedgerFile(path);
  ASSERT_TRUE(ledger.ok()) << ledger.status();
  // Step densities are outside the content digest; faking one must still be
  // caught, by the Lemma-1 trajectory replay.
  ledger->experiments[0].trials[0].steps[0].log_density_d += 0.5;

  std::ostringstream report;
  Status checked = CheckLedger(*ledger, kTolerance, report);
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.message().find("llr replay mismatch"),
            std::string::npos)
      << checked;
  std::filesystem::remove(path);
}

TEST(LedgerVerify, ReplayedRunEmitsByteIdenticalLedger) {
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  const std::string cache =
      ::testing::TempDir() + "/ledger_verify_cache";
  std::filesystem::remove_all(cache);
  ScopedEnv trace_cache("DPAUDIT_TRACE_CACHE", cache);

  const std::string cold_path =
      ::testing::TempDir() + "/ledger_verify_cold.ledger.jsonl";
  const std::string warm_path =
      ::testing::TempDir() + "/ledger_verify_warm.ledger.jsonl";
  WriteLedgerRun(f, config, cold_path);   // trains, records the trace
  WriteLedgerRun(f, config, warm_path);   // replays it from the cache

  const std::string cold = ReadFile(cold_path);
  const std::string warm = ReadFile(warm_path);
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold, warm);

  // A partial replay (recording shorter than the request) must also land on
  // identical rows for the shared prefix: rerun with more repetitions, then
  // the original count again.
  DiExperimentConfig extended = config;
  extended.repetitions = config.repetitions + 2;
  const std::string extended_path =
      ::testing::TempDir() + "/ledger_verify_extended.ledger.jsonl";
  WriteLedgerRun(f, extended, extended_path);
  const std::string again_path =
      ::testing::TempDir() + "/ledger_verify_again.ledger.jsonl";
  WriteLedgerRun(f, config, again_path);
  EXPECT_EQ(cold, ReadFile(again_path));

  std::ostringstream report;
  EXPECT_TRUE(CheckLedgerFile(extended_path, kTolerance, report).ok());

  std::filesystem::remove_all(cache);
  std::filesystem::remove(cold_path);
  std::filesystem::remove(warm_path);
  std::filesystem::remove(extended_path);
  std::filesystem::remove(again_path);
}

}  // namespace
}  // namespace dpaudit
