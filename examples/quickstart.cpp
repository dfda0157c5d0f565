// Quickstart: choose epsilon from an identifiability requirement, train a
// model with DPSGD, and audit the empirical privacy loss with the
// implemented DP adversary.
//
//   ./quickstart [rho_beta] [runtime flags]   (default 0.9)

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench/bench_common.h"
#include "core/auditor.h"
#include "core/experiment.h"
#include "core/scores.h"
#include "data/dataset_sensitivity.h"
#include "data/synthetic_mnist.h"
#include "dp/privacy_params.h"
#include "dp/rdp_accountant.h"
#include "nn/network.h"

using namespace dpaudit;

int main(int argc, char** argv) {
  bench::InitBenchRuntime(&argc, argv);
  // 1. The data scientist's input: "an adversary must never be more than
  //    90% certain that any individual's record was in the training data".
  double rho_beta = argc > 1 ? std::strtod(argv[1], nullptr) : 0.9;
  const size_t epochs = 30;

  StatusOr<double> epsilon = EpsilonForRhoBeta(rho_beta);
  if (!epsilon.ok()) {
    std::cerr << "invalid rho_beta: " << epsilon.status() << "\n";
    return 1;
  }

  // 2. Build a small image-classification task. delta ~ 1/|D|.
  const size_t n = 30;
  const double delta = 1.0 / static_cast<double>(n);
  Rng rng(7);
  SyntheticMnistConfig data_config;
  Dataset all = GenerateSyntheticMnist(2 * n, data_config, rng);
  Dataset pool;
  Dataset d = all.SampleSplit(n, rng, &pool);

  // 3. Identify the worst-case neighboring dataset D' via the dataset
  //    sensitivity heuristic (Definition 6) with SSIM dissimilarity.
  auto candidates = RankBoundedCandidates(d, pool, NegativeSsim);
  Dataset d_prime = MakeBoundedNeighbor(d, pool, candidates->front());

  // 4. Calibrate the per-step noise through the RDP accountant so the
  //    30-step composition spends exactly epsilon.
  double z = *NoiseMultiplierForTargetEpsilon(*epsilon, delta, epochs);

  std::printf("identifiability bound rho_beta = %.3f\n", rho_beta);
  std::printf("  -> total epsilon             = %.3f (Eq. 10)\n", *epsilon);
  std::printf("  -> rho_alpha (Theorem 2)     = %.3f\n",
              *RhoAlpha(*epsilon, delta));
  std::printf("  -> per-step noise multiplier = %.3f (RDP, k = %zu)\n", z,
              epochs);

  // 5. Train with DPSGD while the DP adversary A_DI watches every release,
  //    repeated for statistical stability.
  DiExperimentConfig config;
  config.dpsgd.epochs = epochs;
  config.dpsgd.learning_rate = 0.005;
  config.dpsgd.clip_norm = 3.0;
  config.dpsgd.noise_multiplier = z;
  config.dpsgd.sensitivity_mode = SensitivityMode::kLocalHat;
  config.dpsgd.neighbor_mode = NeighborMode::kBounded;
  config.repetitions = 20;
  config.seed = 42;

  Network architecture = BuildMnistNetwork(data_config.image_size, 4, 8);
  auto summary = RunDiExperiment(architecture, d, d_prime, config);
  if (!summary.ok()) {
    std::cerr << "experiment failed: " << summary.status() << "\n";
    return 1;
  }

  // 6. Audit: three estimates of the empirical privacy loss epsilon'.
  auto report = AuditExperiment(*summary, delta);
  std::printf("\naudit over %zu training runs:\n", summary->trials.size());
  std::printf("  empirical advantage          = %.3f (target rho_alpha "
              "%.3f)\n",
              summary->EmpiricalAdvantage(), *RhoAlpha(*epsilon, delta));
  std::printf("  max posterior belief         = %.3f (bound rho_beta "
              "%.3f)\n",
              summary->MaxBeliefInD(), rho_beta);
  std::printf("  eps' from sensitivities      = %.3f\n",
              report->epsilon_from_sensitivities);
  std::printf("  eps' from max belief         = %.3f\n",
              report->epsilon_from_belief);
  std::printf("  eps' from advantage          = %.3f\n",
              report->epsilon_from_advantage);
  std::printf("  target epsilon               = %.3f\n", *epsilon);
  std::printf("\nfraction of runs exceeding rho_beta: %.3f (must stay near "
              "delta = %.3f)\n",
              summary->EmpiricalDelta(rho_beta), delta);
  return 0;
}
