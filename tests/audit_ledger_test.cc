// Tests for the privacy-audit ledger's serialization layer: row round-trips
// (including non-finite and full-precision doubles), the writer API's seq
// assignment and enable/disable flag, the parser's structural rejections
// (missing manifest, schema mismatch, malformed fields, truncation), and
// the field-by-field diff.

#include "obs/audit_ledger.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace dpaudit {
namespace obs {
namespace {

LedgerManifest TestManifest() {
  LedgerManifest manifest;
  manifest.binary = "audit_ledger_test";
  manifest.simd = "scalar";
  manifest.threads = 3;
  manifest.batch_lanes = 8;
  manifest.git_commit = "abc1234";
  return manifest;
}

LedgerStep MakeStep(uint64_t index) {
  LedgerStep step;
  step.step = index;
  step.clip_norm = 3.0;
  step.local_sensitivity = 0.1 + 0.01 * static_cast<double>(index);
  step.sensitivity_used = step.local_sensitivity;
  step.sigma = 1.5;
  step.log_density_d = -1.25 - 0.3 * static_cast<double>(index);
  step.log_density_dprime = -1.5;
  step.llr = step.log_density_d - step.log_density_dprime;
  step.belief_d = 0.51 + 0.001 * static_cast<double>(index);
  step.rdp_eps_alpha2 = LedgerRdpAlpha2(step.sigma, step.local_sensitivity);
  return step;
}

LedgerExperiment MakeExperiment(uint64_t seq) {
  LedgerExperiment experiment;
  experiment.seq = seq;
  experiment.fingerprint = "0123456789abcdef0123456789abcdef";
  experiment.seed = 0xdeadbeefcafef00dULL;  // exercises 64-bit parsing
  experiment.repetitions = 2;
  experiment.steps_per_trial = 2;
  experiment.prior_belief_d = 0.5;
  experiment.epochs = 2;
  experiment.learning_rate = 0.005;  // not exactly representable: %.17g path
  experiment.clip_norm = 3.0;
  experiment.noise_multiplier = 1.4142135623730951;
  experiment.sensitivity_mode = "LS";
  experiment.neighbor_mode = "bounded";
  experiment.dataset_digest_d = "1111111111111111";
  experiment.dataset_digest_dprime = "2222222222222222";
  experiment.dataset_digest_test = "";
  LedgerDigest digest;
  for (uint64_t rep = 0; rep < experiment.repetitions; ++rep) {
    LedgerTrial trial;
    trial.rep = rep;
    trial.trained_on_d = rep % 2 == 0;
    trial.adversary_says_d = true;
    trial.final_belief_d = 0.6 + 0.01 * static_cast<double>(rep);
    trial.max_belief_d = trial.final_belief_d;
    trial.test_accuracy = -1.0;
    for (uint64_t s = 0; s < experiment.steps_per_trial; ++s) {
      trial.steps.push_back(MakeStep(s));
    }
    digest.AddTrial(trial);
    experiment.trials.push_back(std::move(trial));
  }
  experiment.digest = digest.Hex();
  return experiment;
}

LedgerAudit MakeAudit(uint64_t seq, const std::string& digest) {
  LedgerAudit audit;
  audit.seq = seq;
  audit.digest = digest;
  audit.delta = 1e-3;
  audit.epsilon_from_sensitivities = 2.2000000000000006;
  audit.epsilon_from_belief = 0.40546510810816438;
  audit.epsilon_from_advantage = std::numeric_limits<double>::infinity();
  audit.advantage = 1.0;
  audit.max_belief = 0.6;
  return audit;
}

std::string SerializeTestLedger() {
  std::ostringstream out;
  WriteLedgerManifest(out, TestManifest());
  LedgerExperiment experiment = MakeExperiment(0);
  WriteLedgerExperiment(out, experiment);
  WriteLedgerAudit(out, MakeAudit(1, experiment.digest));
  return out.str();
}

StatusOr<LedgerFile> ParseString(const std::string& text) {
  std::istringstream in(text);
  return ParseLedger(in);
}

TEST(LedgerRoundTrip, PreservesEveryField) {
  StatusOr<LedgerFile> parsed = ParseString(SerializeTestLedger());
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  const LedgerManifest& manifest = parsed->manifest;
  EXPECT_EQ(manifest.schema_version, kLedgerSchemaVersion);
  EXPECT_EQ(manifest.binary, "audit_ledger_test");
  EXPECT_EQ(manifest.simd, "scalar");
  EXPECT_EQ(manifest.threads, 3u);
  EXPECT_EQ(manifest.batch_lanes, 8u);
  EXPECT_EQ(manifest.git_commit, "abc1234");

  ASSERT_EQ(parsed->experiments.size(), 1u);
  const LedgerExperiment expected = MakeExperiment(0);
  const LedgerExperiment& experiment = parsed->experiments[0];
  EXPECT_EQ(experiment.seq, expected.seq);
  EXPECT_EQ(experiment.fingerprint, expected.fingerprint);
  EXPECT_EQ(experiment.digest, expected.digest);
  EXPECT_EQ(experiment.seed, expected.seed);
  EXPECT_EQ(experiment.repetitions, expected.repetitions);
  EXPECT_EQ(experiment.steps_per_trial, expected.steps_per_trial);
  // %.17g must round-trip doubles bit-exactly, including 0.005.
  EXPECT_EQ(experiment.prior_belief_d, expected.prior_belief_d);
  EXPECT_EQ(experiment.learning_rate, expected.learning_rate);
  EXPECT_EQ(experiment.noise_multiplier, expected.noise_multiplier);
  EXPECT_EQ(experiment.sensitivity_mode, expected.sensitivity_mode);
  EXPECT_EQ(experiment.neighbor_mode, expected.neighbor_mode);
  EXPECT_EQ(experiment.dataset_digest_d, expected.dataset_digest_d);
  EXPECT_EQ(experiment.dataset_digest_dprime,
            expected.dataset_digest_dprime);
  EXPECT_EQ(experiment.dataset_digest_test, expected.dataset_digest_test);

  ASSERT_EQ(experiment.trials.size(), expected.trials.size());
  for (size_t rep = 0; rep < expected.trials.size(); ++rep) {
    const LedgerTrial& trial = experiment.trials[rep];
    const LedgerTrial& want = expected.trials[rep];
    EXPECT_EQ(trial.rep, want.rep);
    EXPECT_EQ(trial.trained_on_d, want.trained_on_d);
    EXPECT_EQ(trial.adversary_says_d, want.adversary_says_d);
    EXPECT_EQ(trial.final_belief_d, want.final_belief_d);
    EXPECT_EQ(trial.max_belief_d, want.max_belief_d);
    EXPECT_EQ(trial.test_accuracy, want.test_accuracy);
    ASSERT_EQ(trial.steps.size(), want.steps.size());
    for (size_t s = 0; s < want.steps.size(); ++s) {
      EXPECT_EQ(trial.steps[s].step, want.steps[s].step);
      EXPECT_EQ(trial.steps[s].clip_norm, want.steps[s].clip_norm);
      EXPECT_EQ(trial.steps[s].local_sensitivity,
                want.steps[s].local_sensitivity);
      EXPECT_EQ(trial.steps[s].sensitivity_used,
                want.steps[s].sensitivity_used);
      EXPECT_EQ(trial.steps[s].sigma, want.steps[s].sigma);
      EXPECT_EQ(trial.steps[s].log_density_d, want.steps[s].log_density_d);
      EXPECT_EQ(trial.steps[s].log_density_dprime,
                want.steps[s].log_density_dprime);
      EXPECT_EQ(trial.steps[s].llr, want.steps[s].llr);
      EXPECT_EQ(trial.steps[s].belief_d, want.steps[s].belief_d);
      EXPECT_EQ(trial.steps[s].rdp_eps_alpha2,
                want.steps[s].rdp_eps_alpha2);
    }
  }

  // The audit row's +Infinity spelling must survive the round trip.
  ASSERT_EQ(parsed->audits.size(), 1u);
  const LedgerAudit& audit = parsed->audits[0];
  EXPECT_EQ(audit.seq, 1u);
  EXPECT_EQ(audit.digest, expected.digest);
  EXPECT_EQ(audit.delta, 1e-3);
  EXPECT_EQ(audit.epsilon_from_sensitivities, 2.2000000000000006);
  EXPECT_TRUE(std::isinf(audit.epsilon_from_advantage));
  EXPECT_GT(audit.epsilon_from_advantage, 0.0);
}

TEST(LedgerRoundTrip, SamplingRateIsWrittenOnlyBelowOne) {
  // A batch-mode row keeps its bytes (no sampling_rate key) and reads back
  // as q = 1, as every ledger written before the key existed does.
  std::ostringstream batch;
  WriteLedgerExperiment(batch, MakeExperiment(0));
  EXPECT_EQ(batch.str().find("sampling_rate"), std::string::npos);

  LedgerExperiment sampled = MakeExperiment(0);
  sampled.sampling_rate = 0.2;
  std::ostringstream out;
  WriteLedgerManifest(out, TestManifest());
  WriteLedgerExperiment(out, sampled);
  StatusOr<LedgerFile> parsed = ParseString(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->experiments.size(), 1u);
  EXPECT_EQ(parsed->experiments[0].sampling_rate, 0.2);

  StatusOr<LedgerFile> old = ParseString(SerializeTestLedger());
  ASSERT_TRUE(old.ok()) << old.status();
  EXPECT_EQ(old->experiments[0].sampling_rate, 1.0);
}

TEST(LedgerWriter, AssignsSequenceNumbersAndTogglesEnableFlag) {
  const std::string path =
      ::testing::TempDir() + "/audit_ledger_writer_test.ledger.jsonl";
  EXPECT_FALSE(AuditLedgerEnabled());
  OpenAuditLedgerForTest(path);
  EXPECT_TRUE(AuditLedgerEnabled());

  LedgerExperiment first = MakeExperiment(0);
  LedgerExperiment second = MakeExperiment(0);
  AppendLedgerExperiment(&first);
  LedgerAudit audit = MakeAudit(0, first.digest);
  AppendLedgerAudit(&audit);
  AppendLedgerExperiment(&second);
  EXPECT_EQ(first.seq, 0u);
  EXPECT_EQ(audit.seq, 1u);
  EXPECT_EQ(second.seq, 2u);

  CloseAuditLedgerForTest();
  EXPECT_FALSE(AuditLedgerEnabled());

  StatusOr<LedgerFile> loaded = LoadLedgerFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->manifest.binary, "test");
  ASSERT_EQ(loaded->experiments.size(), 2u);
  EXPECT_EQ(loaded->experiments[0].seq, 0u);
  EXPECT_EQ(loaded->experiments[1].seq, 2u);
  ASSERT_EQ(loaded->audits.size(), 1u);
  EXPECT_EQ(loaded->audits[0].seq, 1u);
  std::remove(path.c_str());
}

TEST(LedgerParser, RejectsFileNotStartingWithManifest) {
  std::ostringstream out;
  WriteLedgerExperiment(out, MakeExperiment(0));
  StatusOr<LedgerFile> parsed = ParseString(out.str());
  EXPECT_FALSE(parsed.ok());
}

TEST(LedgerParser, RejectsSchemaVersionMismatch) {
  std::string text = SerializeTestLedger();
  const std::string needle = "\"schema_version\":1";
  const size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"schema_version\":999");
  StatusOr<LedgerFile> parsed = ParseString(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("schema"), std::string::npos)
      << parsed.status();
}

TEST(LedgerParser, RejectsMalformedField) {
  std::string text = SerializeTestLedger();
  const std::string needle = "\"final_belief_d\":";
  const size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"final_belief_x\":");
  StatusOr<LedgerFile> parsed = ParseString(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("final_belief_d"),
            std::string::npos)
      << parsed.status();
}

TEST(LedgerParser, RejectsTruncatedExperimentBlock) {
  const std::string text = SerializeTestLedger();
  // Drop everything from the last trial row on: the experiment block is now
  // incomplete and the parser must say so rather than return a short file.
  const size_t cut = text.rfind("{\"row\":\"trial\"");
  ASSERT_NE(cut, std::string::npos);
  StatusOr<LedgerFile> parsed = ParseString(text.substr(0, cut));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("truncated"), std::string::npos)
      << parsed.status();
}

TEST(LedgerParser, RejectsEmptyLines) {
  std::string text = SerializeTestLedger();
  const size_t first_newline = text.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  text.insert(first_newline + 1, "\n");
  EXPECT_FALSE(ParseString(text).ok());
}

TEST(LedgerDiffTest, IdenticalLedgersHaveNoDifferences) {
  StatusOr<LedgerFile> a = ParseString(SerializeTestLedger());
  StatusOr<LedgerFile> b = ParseString(SerializeTestLedger());
  ASSERT_TRUE(a.ok() && b.ok());
  std::ostringstream report;
  EXPECT_EQ(DiffLedgers(*a, *b, report), 0u);
}

TEST(LedgerDiffTest, CountsAndNamesFieldDifferences) {
  StatusOr<LedgerFile> a = ParseString(SerializeTestLedger());
  StatusOr<LedgerFile> b = ParseString(SerializeTestLedger());
  ASSERT_TRUE(a.ok() && b.ok());
  b->experiments[0].trials[1].final_belief_d += 0.25;
  b->audits[0].delta = 1e-4;
  std::ostringstream report;
  EXPECT_EQ(DiffLedgers(*a, *b, report), 2u);
  EXPECT_NE(report.str().find("final_belief_d"), std::string::npos)
      << report.str();
  EXPECT_NE(report.str().find("delta"), std::string::npos) << report.str();
}

}  // namespace
}  // namespace obs
}  // namespace dpaudit
