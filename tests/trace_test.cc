#include "core/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "core/auditor.h"
#include "core/dpsgd.h"
#include "core/ledger_bridge.h"
#include "core/sweep_journal.h"
#include "dp/privacy_params.h"
#include "io/serialization.h"
#include "nn/optimizer.h"
#include "obs/audit_ledger.h"
#include "tests/test_helpers.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ExpectSummariesBitIdentical;
using testing_helpers::ExpectTrialsBitIdentical;
using testing_helpers::ExtremeBoundedNeighbor;
using testing_helpers::ScopedEnv;
using testing_helpers::TinyNetwork;

DiExperimentConfig FastExperiment() {
  DiExperimentConfig config;
  config.dpsgd.epochs = 5;
  config.dpsgd.learning_rate = 0.05;
  config.dpsgd.clip_norm = 1.0;
  config.dpsgd.noise_multiplier = 1.0;
  config.repetitions = 16;
  config.seed = 99;
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

/// Fresh per-test cache directory under gtest's temp dir.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : path_(::testing::TempDir() + "/dpaudit_trace_" + name) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedCacheDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ExperimentTrace SampleTrace() {
  ExperimentTrace trace;
  trace.fingerprint = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  for (int t = 0; t < 3; ++t) {
    DiTrialResult trial;
    trial.trained_on_d = t != 1;
    trial.adversary_says_d = t == 0;
    trial.final_belief_d = 0.25 * (t + 1);
    trial.max_belief_d = 0.3 * (t + 1);
    trial.test_accuracy = t == 2 ? 0.875 : -1.0;
    trial.belief_history = {0.5, 0.6 + 0.01 * t, 0.7 + 0.01 * t};
    for (int s = 0; s < 2; ++s) {
      StepRecord step;
      step.clip_norm = 1.0 + s;
      step.local_sensitivity = 0.125 * (s + 1);
      step.sensitivity_used = 0.25 * (s + 1);
      step.sigma = 1.5 * (s + 1);
      step.log_density_d = -1.0 - 0.1 * s;
      step.log_density_dprime = -2.0 - 0.1 * s;
      step.belief_d = trial.belief_history[s + 1];
      trial.steps.push_back(step);
    }
    trace.trials.push_back(trial);
  }
  return trace;
}

void ExpectTracesEqual(const ExperimentTrace& a, const ExperimentTrace& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (size_t t = 0; t < a.trials.size(); ++t) {
    SCOPED_TRACE("trial " + std::to_string(t));
    ExpectTrialsBitIdentical(a.trials[t], b.trials[t]);
  }
}

TEST(TraceFingerprintTest, HexRoundTrip) {
  TraceFingerprint key{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(key.ToHex(), "0123456789abcdeffedcba9876543210");
  auto parsed = TraceFingerprint::FromHex(key.ToHex());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, key);
}

TEST(TraceFingerprintTest, RejectsMalformedHex) {
  EXPECT_FALSE(TraceFingerprint::FromHex("abc").ok());
  EXPECT_FALSE(
      TraceFingerprint::FromHex("0123456789abcdeffedcba987654321g").ok());
}

TEST(TraceSerializationTest, RoundTripIsExact) {
  ExperimentTrace trace = SampleTrace();
  auto bytes = SerializeTrace(trace);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = DeserializeTrace(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTracesEqual(trace, *restored);
}

TEST(TraceSerializationTest, DetectsCorruption) {
  ExperimentTrace trace = SampleTrace();
  auto bytes = SerializeTrace(trace);
  ASSERT_TRUE(bytes.ok());
  // Flip one payload byte: the frame checksum must catch it.
  std::vector<uint8_t> corrupted = *bytes;
  corrupted[corrupted.size() / 2] ^= 0x40;
  EXPECT_FALSE(DeserializeTrace(corrupted).ok());
  // Truncation must fail too, not crash.
  std::vector<uint8_t> truncated(*bytes);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(DeserializeTrace(truncated).ok());
  // Wrong blob kind (a dataset is not a trace).
  EXPECT_FALSE(
      DeserializeTrace(FrameBlob(kBlobKindDataset, {1, 2, 3})).ok());
}

TEST(TraceFingerprintTest, EachConfigFieldInvalidatesTheKey) {
  Fixture f;
  DiExperimentConfig base = FastExperiment();
  TraceFingerprint key = FingerprintExperiment(f.net, f.d, f.d_prime, base);

  // The same inputs rehash to the same key.
  EXPECT_EQ(FingerprintExperiment(f.net, f.d, f.d_prime, base), key);

  // Thread counts are excluded by design (results are thread-invariant).
  DiExperimentConfig threads = base;
  threads.dpsgd.threads = 3;
  EXPECT_EQ(FingerprintExperiment(f.net, f.d, f.d_prime, threads), key);

  // The repetition count is excluded by design too: trial r depends only on
  // (seed, r), so a shorter recording is a bit-identical prefix of a longer
  // run and must share its key (prefix-extensible traces).
  DiExperimentConfig reps = base;
  reps.repetitions = 17;
  EXPECT_EQ(FingerprintExperiment(f.net, f.d, f.d_prime, reps), key);

  // Every semantic field must change the key.
  std::vector<DiExperimentConfig> variants;
  {
    DiExperimentConfig c = base;
    c.dpsgd.epochs = 6;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.learning_rate = 0.06;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.clip_norm = 2.0;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.noise_multiplier = 1.5;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.sensitivity_mode = SensitivityMode::kLocalHat;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.neighbor_mode = NeighborMode::kUnbounded;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.optimizer = OptimizerKind::kMomentum;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.adaptive_clipping = true;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.clip_quantile = 0.6;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.clip_smoothing = 0.4;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.dpsgd.per_layer_clipping = true;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.seed = 100;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.randomize_challenge_bit = true;
    variants.push_back(c);
  }
  {
    DiExperimentConfig c = base;
    c.reinitialize_weights = false;
    variants.push_back(c);
  }
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(FingerprintExperiment(f.net, f.d, f.d_prime, variants[i]), key)
        << "variant " << i << " did not change the fingerprint";
  }
}

TEST(TraceFingerprintTest, BatchConfigKeyIsPinned) {
  // The key of a q = 1 config, as computed before the sampling rate joined
  // DpSgdConfig. Traces cached under batch-mode keys must keep replaying,
  // so this hex may only change with kTraceSchemaVersion.
  Fixture f;
  EXPECT_EQ(FingerprintExperiment(f.net, f.d, f.d_prime, FastExperiment())
                .ToHex(),
            "9ff8bd8ef9968879adf7751fd0a7c0f9");
}

/// FNV-1a 64 of a byte string, as 16 hex characters.
std::string BytesDigest(const void* data, size_t size) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    Fnv1a64(static_cast<const uint8_t*>(data), size)));
  return buf;
}

TEST(TraceFingerprintTest, OnDiskTrialBytesArePinned) {
  // A tiny fixed experiment (2 reps x 3 steps, dense net, coin-flipped
  // challenge bit, test set) pins the bytes of every per-trial artifact:
  // the .dptrace blob, each sweep-journal trial row and the ledger
  // experiment block. Recordings made by older builds are replayed,
  // resumed and checked against these encodings, so the digests may only
  // change together with the format's schema version.
  Fixture f;
  Rng test_rng(7);
  const Dataset test_set = BlobDataset(5, test_rng);
  ScopedCacheDir dir("pinned_bytes");
  TraceStore store(dir.path());
  DiExperimentConfig config = FastExperiment();
  config.dpsgd.epochs = 3;
  config.repetitions = 2;
  config.randomize_challenge_bit = true;
  ScopedEnv sweep_threads("DPAUDIT_THREADS", "1");
  ScopedEnv trace_cache("DPAUDIT_TRACE_CACHE", dir.path());
  ASSERT_TRUE(
      RunDiExperiment(f.net, f.d, f.d_prime, config, &test_set).ok());
  const TraceFingerprint key =
      FingerprintExperiment(f.net, f.d, f.d_prime, config, &test_set);
  StatusOr<ExperimentTrace> trace = store.Load(key);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->trials.size(), 2u);

  StatusOr<std::vector<uint8_t>> blob = SerializeTrace(*trace);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(BytesDigest(blob->data(), blob->size()), "f4aa183c07fdc941");

  const char* const kRowDigests[] = {"49a6d17162eae45b", "c655502b7c44659f"};
  for (size_t rep = 0; rep < 2; ++rep) {
    const std::string row =
        EncodeJournalTrialRow(key, rep, config.seed, trace->trials[rep]);
    EXPECT_EQ(BytesDigest(row.data(), row.size()), kRowDigests[rep])
        << "journal row " << rep;
  }

  std::ostringstream ledger;
  obs::WriteLedgerExperiment(
      ledger, BuildLedgerExperiment(key, config, f.d, f.d_prime, &test_set,
                                    trace->trials, config.repetitions));
  const std::string block = ledger.str();
  EXPECT_EQ(BytesDigest(block.data(), block.size()), "707967a386bc2801");
}

TEST(TraceFingerprintTest, SamplingRateSeparatesKeys) {
  // Without q in the key, a cached q = 0.5 cell would replay for q = 0.2.
  Fixture f;
  Dataset removed = f.d.WithRecordRemoved(0);
  std::set<std::string> keys;
  for (double q : {1.0, 0.5, 0.2}) {
    DiExperimentConfig config = FastExperiment();
    config.dpsgd.neighbor_mode = NeighborMode::kUnbounded;
    config.dpsgd.sampling_rate = q;
    keys.insert(FingerprintExperiment(f.net, f.d, removed, config).ToHex());
  }
  EXPECT_EQ(keys.size(), 3u);
}

TEST(TraceFingerprintTest, DataAndModelInvalidateTheKey) {
  Fixture f;
  DiExperimentConfig config = FastExperiment();
  TraceFingerprint key = FingerprintExperiment(f.net, f.d, f.d_prime, config);

  // Different dataset contents.
  Rng other_rng(55);
  Dataset other = BlobDataset(9, other_rng);
  EXPECT_NE(FingerprintExperiment(f.net, other, f.d_prime, config), key);
  EXPECT_NE(FingerprintExperiment(f.net, f.d, other, config), key);
  EXPECT_NE(DatasetDigest(other), DatasetDigest(f.d));

  // Swapping D and D' must not collide.
  EXPECT_NE(FingerprintExperiment(f.net, f.d_prime, f.d, config), key);

  // Different initial weights (theta_0 matters when weights are shared).
  Network reseeded = TinyNetwork();
  Rng weight_rng(77);
  reseeded.Initialize(weight_rng);
  EXPECT_NE(FingerprintExperiment(reseeded, f.d, f.d_prime, config), key);

  // Presence of a test set changes the trace contents, hence the key.
  Rng test_rng(56);
  Dataset test = BlobDataset(4, test_rng);
  EXPECT_NE(FingerprintExperiment(f.net, f.d, f.d_prime, config, &test),
            key);
}

TEST(TraceStoreTest, SaveLoadListEvict) {
  ScopedCacheDir cache("store");
  TraceStore store(cache.path());
  ExperimentTrace trace = SampleTrace();

  // Empty cache: NotFound, empty listing.
  EXPECT_EQ(store.Load(trace.fingerprint).status().code(),
            StatusCode::kNotFound);
  auto empty = store.List();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  ASSERT_TRUE(store.Save(trace).ok());
  auto loaded = store.Load(trace.fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectTracesEqual(trace, *loaded);

  auto entries = store.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].key, trace.fingerprint.ToHex());
  EXPECT_EQ((*entries)[0].repetitions, 3u);
  EXPECT_EQ((*entries)[0].steps, 2u);

  ASSERT_TRUE(store.Evict(trace.fingerprint.ToHex()).ok());
  EXPECT_EQ(store.Load(trace.fingerprint).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.Evict(trace.fingerprint.ToHex()).code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(store.Save(trace).ok());
  ExperimentTrace second = trace;
  second.fingerprint.lo ^= 1;
  ASSERT_TRUE(store.Save(second).ok());
  auto removed = store.EvictAll();
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2u);
}

TEST(TraceStoreTest, CorruptEntryFailsValidationButListSkipsIt) {
  ScopedCacheDir cache("corrupt");
  TraceStore store(cache.path());
  ExperimentTrace trace = SampleTrace();
  ASSERT_TRUE(store.Save(trace).ok());

  // Flip one byte in the middle of the stored file.
  std::string path = store.PathFor(trace.fingerprint);
  auto bytes = ReadBlobFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteBlobFile(path, *bytes).ok());

  Status status = store.Load(trace.fingerprint).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  auto entries = store.List();
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(TraceCacheTest, WarmReplayIsBitIdenticalToColdRun) {
  Fixture f;
  ScopedCacheDir cache("replay");
  TraceStore store(cache.path());
  DiExperimentConfig config = FastExperiment();

  // Reference: no cache involved at all.
  auto reference = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Cold: records into the cache while producing the same result.
  ScopedEnv trace_cache("DPAUDIT_TRACE_CACHE", cache.path());
  auto cold = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto entries = store.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);

  // Warm: replays from disk without training.
  auto warm = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(warm.ok()) << warm.status();

  ExpectSummariesBitIdentical(*reference, *cold);
  ExpectSummariesBitIdentical(*reference, *warm);

  // All three epsilon' estimators must agree bit-for-bit.
  double delta = 1.0 / 9.0;
  auto audit_ref = AuditExperiment(*reference, delta);
  auto audit_warm = AuditExperiment(*warm, delta);
  ASSERT_TRUE(audit_ref.ok());
  ASSERT_TRUE(audit_warm.ok());
  EXPECT_EQ(audit_ref->epsilon_from_sensitivities,
            audit_warm->epsilon_from_sensitivities);
  EXPECT_EQ(audit_ref->epsilon_from_belief, audit_warm->epsilon_from_belief);
  EXPECT_EQ(audit_ref->epsilon_from_advantage,
            audit_warm->epsilon_from_advantage);
}

TEST(TraceCacheTest, TestSetAccuracySurvivesReplay) {
  Fixture f;
  ScopedCacheDir cache("testset");
  TraceStore store(cache.path());
  Rng data_rng(44);
  Dataset test = BlobDataset(12, data_rng);
  DiExperimentConfig config = FastExperiment();
  config.repetitions = 4;
  ScopedEnv trace_cache("DPAUDIT_TRACE_CACHE", cache.path());

  auto cold = RunDiExperiment(f.net, f.d, f.d_prime, config, &test);
  ASSERT_TRUE(cold.ok());
  auto warm = RunDiExperiment(f.net, f.d, f.d_prime, config, &test);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(cold->TestAccuracies().size(), 4u);
  EXPECT_EQ(cold->TestAccuracies(), warm->TestAccuracies());

  // A run WITHOUT the test set keys differently — no false replay of the
  // accuracy-free variant.
  auto no_test = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(no_test.ok());
  EXPECT_TRUE(no_test->TestAccuracies().empty());
  auto entries = store.List();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

void ExpectTrialPrefixBitIdentical(const DiExperimentSummary& reference,
                                   const DiExperimentSummary& got,
                                   size_t count) {
  ASSERT_LE(count, reference.trials.size());
  ASSERT_EQ(got.trials.size(), count);
  for (size_t i = 0; i < count; ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    ExpectTrialsBitIdentical(reference.trials[i], got.trials[i]);
  }
}

TEST(TraceCacheTest, ShorterRecordingReplaysAsPrefixAndExtends) {
  Fixture f;
  ScopedCacheDir cache("prefix");
  TraceStore store(cache.path());

  // Reference: 8 repetitions, no cache involved.
  DiExperimentConfig config = FastExperiment();
  config.repetitions = 8;
  auto reference = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Record only 4 repetitions. Trial r depends on (seed, r) alone, so these
  // are bit-identical to the reference's first four.
  config.repetitions = 4;
  ScopedEnv trace_cache("DPAUDIT_TRACE_CACHE", cache.path());
  auto small = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(small.ok()) << small.status();
  ExpectTrialPrefixBitIdentical(*reference, *small, 4);
  auto entries = store.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ(entries->front().repetitions, 4u);

  // Asking for 8 replays the cached prefix, trains only the tail, and saves
  // the extended recording under the SAME key (repetitions are not part of
  // the fingerprint).
  config.repetitions = 8;
  auto extended = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(extended.ok()) << extended.status();
  ExpectTrialPrefixBitIdentical(*reference, *extended, 8);
  entries = store.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ(entries->front().repetitions, 8u);

  // A longer recording serves shorter requests as a pure replay (no train,
  // no rewrite).
  config.repetitions = 3;
  auto prefix = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  ExpectTrialPrefixBitIdentical(*reference, *prefix, 3);
  entries = store.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ(entries->front().repetitions, 8u);
}

TEST(TraceCacheTest, CorruptCacheEntryFallsBackToLiveRun) {
  Fixture f;
  ScopedCacheDir cache("fallback");
  TraceStore store(cache.path());
  DiExperimentConfig config = FastExperiment();
  config.repetitions = 4;
  ScopedEnv trace_cache("DPAUDIT_TRACE_CACHE", cache.path());

  auto cold = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(cold.ok());

  TraceFingerprint key =
      FingerprintExperiment(f.net, f.d, f.d_prime, config);
  std::string path = store.PathFor(key);
  auto bytes = ReadBlobFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() - 1] ^= 0xff;  // break the checksum
  ASSERT_TRUE(WriteBlobFile(path, *bytes).ok());

  auto rerun = RunDiExperiment(f.net, f.d, f.d_prime, config);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  ASSERT_EQ(rerun->trials.size(), cold->trials.size());
  for (size_t i = 0; i < cold->trials.size(); ++i) {
    EXPECT_EQ(cold->trials[i].final_belief_d,
              rerun->trials[i].final_belief_d);
  }
  // The rerun repaired the cache entry.
  auto repaired = store.Load(key);
  EXPECT_TRUE(repaired.ok()) << repaired.status();
}

}  // namespace
}  // namespace dpaudit
