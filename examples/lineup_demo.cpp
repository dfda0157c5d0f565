// lineup_demo: differential identifiability beyond the two-world DP setting
// (Lee & Clifton's original formulation, Section 2.3 of the paper).
//
// A hospital publishes a DPSGD-trained model. An investigator knows the
// training data was one of |Psi| candidate rosters differing in which
// patient participated. How confidently can the DP adversary pick the true
// roster from the released gradient trail, and how does DP calibration
// change that?
//
//   ./lineup_demo [num_worlds] [runtime flags]   (default 5)

#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"
#include "core/multi_world.h"
#include "core/scores.h"
#include "data/dataset_sensitivity.h"
#include "data/synthetic_purchase.h"
#include "dp/rdp_accountant.h"
#include "nn/network.h"

using namespace dpaudit;

int main(int argc, char** argv) {
  bench::InitBenchRuntime(&argc, argv);
  size_t num_worlds =
      argc > 1 ? static_cast<size_t>(std::strtol(argv[1], nullptr, 10)) : 5;
  if (num_worlds < 2) num_worlds = 2;
  const size_t n = 24;
  const size_t epochs = 20;
  const double delta = 1.0 / static_cast<double>(n);

  SyntheticPurchaseConfig config;
  config.num_classes = 20;
  SyntheticPurchaseGenerator generator(config, 5);
  Rng rng(9);
  Dataset all = generator.Generate(2 * n, rng);
  Dataset pool;
  Dataset base = all.SampleSplit(n, rng, &pool);

  // Candidate rosters: the base roster plus variants where patient 0 is
  // replaced by successively different pool members.
  auto ranked = RankBoundedCandidates(base, pool, HammingDistance);
  std::vector<Dataset> worlds;
  worlds.push_back(base);
  for (size_t w = 1; w < num_worlds; ++w) {
    size_t pick = (w - 1) * (ranked->size() / num_worlds);
    worlds.push_back(MakeBoundedNeighbor(base, pool, (*ranked)[pick]));
  }
  Network architecture =
      BuildPurchaseNetwork(config.num_features, 32, config.num_classes);

  std::printf("lineup of %zu candidate rosters, |D| = %zu, k = %zu steps\n\n",
              num_worlds, n, epochs);

  struct Setting {
    const char* label;
    double z;
  };
  const double calibrated = *NoiseMultiplierForTargetEpsilon(
      *EpsilonForRhoBeta(0.9), delta, epochs);
  const Setting settings[] = {
      {"no meaningful DP (z = 0.1)", 0.1},
      {"calibrated to rho_beta = 0.9", calibrated},
  };
  for (const Setting& setting : settings) {
    MultiWorldExperimentConfig experiment;
    experiment.dpsgd.epochs = epochs;
    experiment.dpsgd.learning_rate = 0.005;
    experiment.dpsgd.clip_norm = 3.0;
    experiment.dpsgd.noise_multiplier = setting.z;
    experiment.repetitions = 15;
    experiment.seed = 77;
    auto summary = RunMultiWorldExperiment(architecture, worlds,
                                           /*true_world=*/0, experiment);
    if (!summary.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   summary.status().ToString().c_str());
      return 1;
    }
    std::printf("%s:\n", setting.label);
    std::printf("  identification rate : %.2f (chance %.2f)\n",
                summary->identification_rate,
                1.0 / static_cast<double>(num_worlds));
    std::printf("  mean belief in truth: %.3f\n", summary->mean_true_belief);
    std::printf("  max belief in truth : %.3f\n\n", summary->max_true_belief);
  }
  std::printf("takeaway: without calibration the investigator names the "
              "roster almost every time;\nwith rho_beta = 0.9 noise the "
              "posterior flattens toward uniform over the lineup.\n");
  return 0;
}
