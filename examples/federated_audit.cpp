// federated_audit: the deployment scenario the paper motivates A_DI with
// (Sections 6.1, 7) — federated learning, where every participant observes
// the per-round aggregate updates.
//
// A victim client's shard either contains a particular record (D_v) or has
// it replaced (D_v'). Each round the server adds Gaussian noise to the sum
// of every client's clipped per-example gradients and broadcasts the update,
// so one round is one DPSGD step over the union of the shards, and the two
// hypotheses are honest shards + D_v versus honest shards + D_v'. An
// honest-but-curious participant with DP-adversary knowledge runs the
// posterior-belief attack against the released updates, once with weak
// noise and once with noise calibrated to rho_beta = 0.9.
//
//   ./federated_audit [rounds]   (default 30)

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/adversary.h"
#include "core/dpsgd.h"
#include "core/scores.h"
#include "data/dataset_sensitivity.h"
#include "data/synthetic_purchase.h"
#include "dp/privacy_params.h"
#include "dp/rdp_accountant.h"
#include "nn/network.h"

using namespace dpaudit;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  size_t rounds = argc > 1 ? static_cast<size_t>(std::strtol(argv[1], nullptr, 10)) : 30;
  const double delta = 0.01;

  SyntheticPurchaseConfig data_config;
  data_config.num_classes = 30;
  SyntheticPurchaseGenerator generator(data_config, 31);
  Rng rng(37);

  // Three honest clients plus the victim.
  std::vector<Dataset> shards = {generator.Generate(15, rng),
                                 generator.Generate(15, rng),
                                 generator.Generate(15, rng)};
  Dataset pool = generator.Generate(30, rng);
  Dataset victim_d = generator.Generate(15, rng);
  auto candidates = RankBoundedCandidates(victim_d, pool, HammingDistance);
  Dataset victim_d_prime =
      MakeBoundedNeighbor(victim_d, pool, candidates->front());
  const Dataset with_d = Union(shards, victim_d);
  const Dataset with_d_prime = Union(shards, victim_d_prime);

  Network architecture =
      BuildPurchaseNetwork(data_config.num_features, 48,
                           data_config.num_classes);
  Rng init_rng(41);
  architecture.Initialize(init_rng);

  struct Setting {
    const char* label;
    double noise_multiplier;
  };
  const double eps_for_09 = *EpsilonForRhoBeta(0.9);
  Setting settings[] = {
      {"weak noise", 0.05},
      {"rho_beta = 0.9 calibration",
       *NoiseMultiplierForTargetEpsilon(eps_for_09, delta, rounds)},
  };

  std::printf("federated learning: 3 honest clients + 1 victim, %zu "
              "rounds\n\n",
              rounds);
  for (const Setting& setting : settings) {
    DpSgdConfig config;
    config.epochs = rounds;
    config.learning_rate = 0.005;
    config.clip_norm = 3.0;
    config.noise_multiplier = setting.noise_multiplier;
    config.sensitivity_mode = SensitivityMode::kLocalHat;
    Rng run_rng(43);
    DiAdversary adversary;
    auto result = RunDpSgd(architecture, with_d, with_d_prime,
                           /*train_on_d=*/true, config, run_rng, &adversary);
    if (!result.ok()) {
      std::fprintf(stderr, "federated run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const std::vector<double>& beliefs = adversary.BeliefHistory();
    std::printf("%s (z = %.3f):\n", setting.label,
                setting.noise_multiplier);
    std::printf("  adversary belief in D_v per round:");
    for (size_t i = 0; i < beliefs.size(); i += 5) {
      std::printf(" %.3f", beliefs[i]);
    }
    std::printf(" ... final %.3f\n", beliefs.back());
    std::printf("  adversary identifies the record: %s\n\n",
                adversary.DecideD() ? "YES (privacy breach)"
                                                : "no");
  }
  std::printf("takeaway: without DP calibration a curious participant "
              "identifies the victim's record\n"
              "from the aggregate updates alone; calibrating to rho_beta = "
              "0.9 keeps its certainty bounded.\n");
  return 0;
}
