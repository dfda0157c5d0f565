#include "core/adversary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "dp/privacy_params.h"
#include "tests/test_helpers.h"

namespace dpaudit {
namespace {

using testing_helpers::BlobDataset;
using testing_helpers::ExtremeBoundedNeighbor;
using testing_helpers::TinyNetwork;

TEST(DiAdversaryTest, StartsUndecided) {
  DiAdversary adversary;
  EXPECT_DOUBLE_EQ(adversary.FinalBeliefD(), 0.5);
  EXPECT_DOUBLE_EQ(adversary.MaxBeliefD(), 0.5);
}

TEST(DiAdversaryTest, BelievesDWhenReleaseIsNearSumD) {
  DiAdversary adversary;
  std::vector<float> sum_d = {1.0f, 1.0f};
  std::vector<float> sum_dprime = {-1.0f, -1.0f};
  std::vector<float> released = {0.9f, 1.1f};  // clearly near D
  adversary.OnStep(0, sum_d, sum_dprime, released, /*sigma=*/0.5);
  EXPECT_GT(adversary.FinalBeliefD(), 0.9);
  EXPECT_TRUE(adversary.DecideD());
}

TEST(DiAdversaryTest, BelievesDPrimeWhenReleaseIsNearSumDPrime) {
  DiAdversary adversary;
  adversary.OnStep(0, {1.0f, 1.0f}, {-1.0f, -1.0f}, {-0.9f, -1.1f}, 0.5);
  EXPECT_LT(adversary.FinalBeliefD(), 0.1);
  EXPECT_FALSE(adversary.DecideD());
}

TEST(DiAdversaryTest, HugeNoiseLeavesBeliefNearHalf) {
  DiAdversary adversary;
  adversary.OnStep(0, {1.0f}, {-1.0f}, {0.3f}, /*sigma=*/1e6);
  EXPECT_NEAR(adversary.FinalBeliefD(), 0.5, 1e-3);
}

TEST(DiAdversaryTest, EvidenceAccumulatesOverSteps) {
  DiAdversary adversary;
  // Each step weakly favors D; the posterior compounds (Lemma 1).
  double prev = 0.5;
  for (int i = 0; i < 10; ++i) {
    adversary.OnStep(i, {1.0f}, {-1.0f}, {0.4f}, /*sigma=*/3.0);
    EXPECT_GT(adversary.FinalBeliefD(), prev);
    prev = adversary.FinalBeliefD();
  }
  EXPECT_EQ(adversary.BeliefHistory().size(), 11u);
}

TEST(DiAdversaryTest, MaxBeliefTracksPeakNotFinal) {
  DiAdversary adversary;
  adversary.OnStep(0, {1.0f}, {-1.0f}, {2.0f}, 1.0);   // strong pro-D
  double peak = adversary.FinalBeliefD();
  adversary.OnStep(1, {1.0f}, {-1.0f}, {-0.5f}, 1.0);  // contradicting
  EXPECT_LT(adversary.FinalBeliefD(), peak);
  EXPECT_DOUBLE_EQ(adversary.MaxBeliefD(), peak);
}

TEST(DiAdversaryIntegrationTest, IdentifiesTrainingDatasetAtLowNoise) {
  Rng rng(1);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 8.0f);
  DpSgdConfig config;
  config.epochs = 10;
  config.learning_rate = 0.05;
  config.clip_norm = 1.0;
  config.noise_multiplier = 0.05;  // nearly noiseless: adversary should win
  config.sensitivity_mode = SensitivityMode::kLocalHat;

  // Trained on D -> adversary says D.
  {
    DiAdversary adversary;
    Rng run_rng(2);
    auto result = RunDpSgd(net, d, d_prime, /*train_on_d=*/true, config,
                           run_rng, &adversary);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(adversary.DecideD());
    EXPECT_GT(adversary.FinalBeliefD(), 0.95);
  }
  // Trained on D' -> adversary says D'.
  {
    DiAdversary adversary;
    Rng run_rng(3);
    auto result = RunDpSgd(net, d, d_prime, /*train_on_d=*/false, config,
                           run_rng, &adversary);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(adversary.DecideD());
    EXPECT_LT(adversary.FinalBeliefD(), 0.05);
  }
}

TEST(DiAdversaryIntegrationTest, HighNoiseKeepsPlausibleDeniability) {
  Rng rng(4);
  Network net = TinyNetwork();
  net.Initialize(rng);
  Dataset d = BlobDataset(9, rng);
  Dataset d_prime = ExtremeBoundedNeighbor(d, 8.0f);
  DpSgdConfig config;
  config.epochs = 10;
  config.learning_rate = 0.05;
  config.clip_norm = 1.0;
  config.noise_multiplier = 50.0;  // drowning noise
  DiAdversary adversary;
  Rng run_rng(5);
  auto result =
      RunDpSgd(net, d, d_prime, true, config, run_rng, &adversary);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(adversary.FinalBeliefD(), 0.5, 0.2);
}

// ---------- the mixture adversary (sampling_rate < 1) ----------

TEST(SampledDiAdversaryTest, MixtureBeliefMovesTowardTruth) {
  // Strong signal, deterministic evidence: a release exactly at S + g1 with
  // small noise must push belief toward D; one at S toward D' (though less
  // decisively, since under D the record might simply not have been
  // sampled).
  const std::vector<float> sum_dprime = {0.0f, 0.0f};  // S
  const std::vector<float> sum_d = {2.0f, 2.0f};       // S + g1
  DiAdversary toward_d(0.5, /*sampling_rate=*/0.5);
  toward_d.OnStep(0, sum_d, sum_dprime, {2.0f, 2.0f}, /*sigma=*/0.2);
  EXPECT_GT(toward_d.FinalBeliefD(), 0.9);

  DiAdversary toward_dprime(0.5, 0.5);
  toward_dprime.OnStep(0, sum_d, sum_dprime, {0.0f, 0.0f}, 0.2);
  EXPECT_LT(toward_dprime.FinalBeliefD(), 0.5);
  // But bounded below: belief cannot drop past the (1-q) odds ratio.
  EXPECT_GT(toward_dprime.FinalBeliefD(), 0.2);
}

TEST(SampledDiAdversaryTest, BeliefAgainstDBoundedByMissProbability) {
  // Under the mixture, log p_D >= log(1-q) + log p_D', so one observation
  // can push the belief no lower than sigmoid(log(1-q)) = (1-q)/(2-q).
  const double q = 0.3;
  DiAdversary adversary(0.5, q);
  adversary.OnStep(0, {5.0f}, {0.0f}, {0.0f}, 0.1);
  double floor = (1.0 - q) / (2.0 - q);
  EXPECT_GE(adversary.FinalBeliefD(), floor - 1e-9);
  EXPECT_NEAR(adversary.FinalBeliefD(), floor, 0.01);
  // The recorded D density is the mixture's, so the ledger's LLR matches.
  EXPECT_NEAR(adversary.StepLogDensitiesD()[0] -
                  adversary.StepLogDensitiesDPrime()[0],
              std::log1p(-q), 1e-6);
}

TEST(SampledDiAdversaryTest, FullSamplingMatchesBinaryAdversary) {
  // At q = 1 the mixture collapses to the binary test, bit for bit.
  const std::vector<float> sum_d = {1.5f, 0.25f};
  const std::vector<float> sum_dprime = {0.5f, -0.25f};
  const std::vector<std::vector<float>> releases = {
      {1.2f, 0.1f}, {0.4f, -0.3f}, {0.9f, 0.0f}};
  DiAdversary mixture(0.5, /*sampling_rate=*/1.0);
  DiAdversary binary;
  for (size_t i = 0; i < releases.size(); ++i) {
    mixture.OnStep(i, sum_d, sum_dprime, releases[i], 0.8);
    binary.OnStep(i, sum_d, sum_dprime, releases[i], 0.8);
  }
  EXPECT_EQ(mixture.BeliefHistory(), binary.BeliefHistory());
  EXPECT_EQ(mixture.StepLogDensitiesD(), binary.StepLogDensitiesD());
  EXPECT_EQ(mixture.StepLogDensitiesDPrime(),
            binary.StepLogDensitiesDPrime());
  // And the mixture is continuous there: q just below 1 barely moves it.
  DiAdversary almost(0.5, 1.0 - 1e-9);
  for (size_t i = 0; i < releases.size(); ++i) {
    almost.OnStep(i, sum_d, sum_dprime, releases[i], 0.8);
  }
  EXPECT_NEAR(almost.FinalBeliefD(), binary.FinalBeliefD(), 1e-6);
}

// ---------- federated learning ----------
//
// Each round the server adds Gaussian noise to the sum of every client's
// clipped per-example gradients, so one round is one DPSGD step over the
// union of the shards: the hypotheses are honest shards + D_v versus honest
// shards + D_v', and a curious participant runs DiAdversary on the releases.

/// The honest shards' records followed by the victim's.
Dataset Union(const std::vector<Dataset>& honest, const Dataset& victim) {
  Dataset all;
  auto append = [&all](const Dataset& part) {
    for (size_t i = 0; i < part.size(); ++i) {
      all.Add(part.inputs[i], part.labels[i]);
    }
  };
  for (const Dataset& shard : honest) append(shard);
  append(victim);
  return all;
}

struct FedFixture {
  FedFixture() : rng(1), net(TinyNetwork()) {
    net.Initialize(rng);
    shards = {BlobDataset(6, rng), BlobDataset(6, rng)};
    victim_d = BlobDataset(6, rng);
    victim_d_prime = ExtremeBoundedNeighbor(victim_d, 7.0f);
  }
  Rng rng;
  Network net;
  std::vector<Dataset> shards;
  Dataset victim_d;
  Dataset victim_d_prime;
};

DpSgdConfig FastFedConfig() {
  DpSgdConfig config;
  config.epochs = 5;
  config.learning_rate = 0.05;
  config.clip_norm = 1.0;
  config.noise_multiplier = 1.0;
  return config;
}

struct FedRun {
  StatusOr<DpSgdResult> result;
  std::vector<double> beliefs;
  bool says_victim_d = false;
};

FedRun RunFederated(const FedFixture& f, const std::vector<Dataset>& honest,
                    bool victim_has_d, const DpSgdConfig& config,
                    uint64_t seed) {
  DiAdversary adversary;
  Rng rng(seed);
  StatusOr<DpSgdResult> result =
      RunDpSgd(f.net, Union(honest, f.victim_d),
               Union(honest, f.victim_d_prime), victim_has_d, config, rng,
               &adversary);
  return {std::move(result), adversary.BeliefHistory(), adversary.DecideD()};
}

TEST(FederatedTest, RunsAndRecordsBeliefTrajectory) {
  FedFixture f;
  FedRun run = RunFederated(f, f.shards, true, FastFedConfig(), 2);
  ASSERT_TRUE(run.result.ok()) << run.result.status();
  EXPECT_EQ(run.beliefs.size(), 6u);  // prior + 5 rounds
  EXPECT_EQ(run.result->steps.size(), 5u);
  EXPECT_NE(run.result->model.FlatParams(), f.net.FlatParams());
}

TEST(FederatedTest, AdversaryWinsAtLowNoise) {
  FedFixture f;
  DpSgdConfig config = FastFedConfig();
  config.epochs = 8;
  config.noise_multiplier = 0.05;
  config.sensitivity_mode = SensitivityMode::kLocalHat;
  FedRun with_d = RunFederated(f, f.shards, true, config, 3);
  ASSERT_TRUE(with_d.result.ok());
  EXPECT_TRUE(with_d.says_victim_d);
  FedRun with_dprime = RunFederated(f, f.shards, false, config, 4);
  ASSERT_TRUE(with_dprime.result.ok());
  EXPECT_FALSE(with_dprime.says_victim_d);
}

TEST(FederatedTest, HighNoiseProtectsVictim) {
  FedFixture f;
  DpSgdConfig config = FastFedConfig();
  config.noise_multiplier = 100.0;
  FedRun run = RunFederated(f, f.shards, true, config, 5);
  ASSERT_TRUE(run.result.ok());
  EXPECT_NEAR(run.beliefs.back(), 0.5, 0.25);
}

TEST(FederatedTest, WorksWithNoHonestClients) {
  // Degenerate case: the victim is the only participant; this is
  // centralized DPSGD on D_v versus D_v'.
  FedFixture f;
  FedRun run = RunFederated(f, {}, true, FastFedConfig(), 6);
  ASSERT_TRUE(run.result.ok());
  Rng rng(6);
  auto direct = RunDpSgd(f.net, f.victim_d, f.victim_d_prime, true,
                         FastFedConfig(), rng);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(run.result->model.FlatParams(), direct->model.FlatParams());
}

TEST(FederatedTest, DeterministicGivenSeed) {
  FedFixture f;
  FedRun first = RunFederated(f, f.shards, true, FastFedConfig(), 11);
  FedRun second = RunFederated(f, f.shards, true, FastFedConfig(), 11);
  ASSERT_TRUE(first.result.ok());
  ASSERT_TRUE(second.result.ok());
  EXPECT_EQ(first.beliefs, second.beliefs);
  EXPECT_EQ(first.result->model.FlatParams(),
            second.result->model.FlatParams());
}

TEST(FederatedTest, LocalSensitivityModeScalesNoise) {
  FedFixture f;
  DpSgdConfig config = FastFedConfig();
  config.sensitivity_mode = SensitivityMode::kLocalHat;
  FedRun run = RunFederated(f, f.shards, true, config, 12);
  ASSERT_TRUE(run.result.ok());
  // LS in the aggregate equals the victim-side gradient delta and must
  // respect the bounded global cap.
  for (const StepRecord& step : run.result->steps) {
    EXPECT_GE(step.local_sensitivity, 0.0);
    EXPECT_LE(step.local_sensitivity, 2.0 * config.clip_norm + 1e-6);
  }
}

TEST(FederatedTest, HonestClientsDoNotChangeTheHypothesisGap) {
  // The belief dynamics depend on S(D_v) - S(D_v') only; honest clients add
  // identical mass under both hypotheses. At step 0, where the weights
  // match, the gap (local sensitivity) is the same with or without them.
  FedFixture f;
  FedRun with_honest = RunFederated(f, f.shards, true, FastFedConfig(), 13);
  FedRun without = RunFederated(f, {}, true, FastFedConfig(), 13);
  ASSERT_TRUE(with_honest.result.ok());
  ASSERT_TRUE(without.result.ok());
  EXPECT_NEAR(with_honest.result->steps[0].local_sensitivity,
              without.result->steps[0].local_sensitivity, 1e-6);
}

TEST(FederatedTest, RejectsEmptyShards) {
  FedFixture f;
  Rng rng(7);
  Dataset empty;
  // An empty honest shard adds nothing; an empty victim side is no audit.
  EXPECT_TRUE(RunFederated(f, {empty}, true, FastFedConfig(), 7).result.ok());
  EXPECT_FALSE(
      RunDpSgd(f.net, empty, f.victim_d_prime, true, FastFedConfig(), rng)
          .ok());
  EXPECT_FALSE(
      RunDpSgd(f.net, f.victim_d, empty, true, FastFedConfig(), rng).ok());
}

}  // namespace
}  // namespace dpaudit
