// audit_model: full auditing workflow on the Purchase-100-like task
// (Section 6.4) — train at a target epsilon under both sensitivity modes
// and report how much of the privacy budget was factually spent.
//
//   ./audit_model [epsilon] [reps] [runtime flags]   (defaults: 2.2, 20)

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench/bench_common.h"
#include "core/auditor.h"
#include "core/experiment.h"
#include "data/dataset_sensitivity.h"
#include "data/synthetic_purchase.h"
#include "dp/privacy_params.h"
#include "dp/rdp_accountant.h"
#include "nn/metrics.h"
#include "nn/network.h"
#include "util/table_writer.h"

using namespace dpaudit;

int main(int argc, char** argv) {
  bench::InitBenchRuntime(&argc, argv);
  double epsilon = argc > 1 ? std::strtod(argv[1], nullptr) : 2.2;
  size_t reps = argc > 2 ? static_cast<size_t>(std::strtol(argv[2], nullptr, 10)) : 20;
  const size_t epochs = 30;
  const size_t n = 40;
  const double delta = 0.01;

  // Build the task: binary purchase baskets with Hamming dissimilarity.
  SyntheticPurchaseConfig data_config;
  data_config.num_classes = 30;
  SyntheticPurchaseGenerator generator(data_config, 11);
  Rng rng(13);
  Dataset all = generator.Generate(2 * n, rng);
  Dataset pool;
  Dataset d = all.SampleSplit(n, rng, &pool);
  Dataset test = generator.Generate(n, rng);
  auto candidates = RankBoundedCandidates(d, pool, HammingDistance);
  Dataset d_prime = MakeBoundedNeighbor(d, pool, candidates->front());
  Network architecture =
      BuildPurchaseNetwork(data_config.num_features, 48,
                           data_config.num_classes);

  double z = *NoiseMultiplierForTargetEpsilon(epsilon, delta, epochs);
  std::printf("auditing DPSGD at target epsilon = %.2f (delta = %.3f, "
              "k = %zu, z = %.3f, %zu repetitions)\n\n",
              epsilon, delta, epochs, z, reps);

  TableWriter table({"Delta f", "Adv^DI,Gau", "max beta_k",
                     "eps' (sens.)", "eps' (belief)", "eps' (adv.)",
                     "verdict"});
  for (SensitivityMode mode :
       {SensitivityMode::kLocalHat, SensitivityMode::kGlobal}) {
    DiExperimentConfig config;
    config.dpsgd.epochs = epochs;
    config.dpsgd.learning_rate = 0.005;
    config.dpsgd.clip_norm = 3.0;
    config.dpsgd.noise_multiplier = z;
    config.dpsgd.sensitivity_mode = mode;
    config.dpsgd.neighbor_mode = NeighborMode::kBounded;
    config.repetitions = reps;
    config.seed = 21;
    auto summary = RunDiExperiment(architecture, d, d_prime, config);
    if (!summary.ok()) {
      std::cerr << "experiment failed: " << summary.status() << "\n";
      return 1;
    }
    auto report = AuditExperiment(*summary, delta);
    double eps_sens = report->epsilon_from_sensitivities;
    const char* verdict = eps_sens > 0.9 * epsilon
                              ? "tight: budget factually spent"
                              : "loose: utility left on the table";
    table.AddRow({SensitivityModeToString(mode),
                  TableWriter::Cell(summary->EmpiricalAdvantage(), 3),
                  TableWriter::Cell(summary->MaxBeliefInD(), 3),
                  TableWriter::Cell(eps_sens, 3),
                  TableWriter::Cell(report->epsilon_from_belief, 3),
                  TableWriter::Cell(report->epsilon_from_advantage, 3),
                  verdict});
  }
  table.RenderText(std::cout);

  // Utility of one concrete trained model under the local-sensitivity plan.
  {
    DpSgdConfig train_config;
    train_config.epochs = epochs;
    train_config.learning_rate = 0.005;
    train_config.clip_norm = 3.0;
    train_config.noise_multiplier = z;
    train_config.sensitivity_mode = SensitivityMode::kLocalHat;
    Rng train_rng(47);
    Network init = architecture.Clone();
    init.Initialize(train_rng);
    auto trained = RunDpSgd(init, d, d_prime, /*train_on_d=*/true,
                            train_config, train_rng);
    if (trained.ok()) {
      ConfusionMatrix confusion = EvaluateConfusion(
          trained->model, test.inputs, test.labels, data_config.num_classes);
      std::printf("\nutility of one LS-trained model: test accuracy %.3f, "
                  "macro F1 %.3f (%zu classes)\n",
                  confusion.Accuracy(), confusion.MacroF1(),
                  confusion.num_classes());
    }
  }

  std::printf("\ninterpretation: with Delta f = LS the perturbation matches "
              "the factual worst-case\n"
              "gradient difference, so eps' reaches the target; with the "
              "global clip bound 2C the\n"
              "mechanism over-noises and eps' (hence the factual risk) "
              "stays below target.\n");
  return 0;
}
