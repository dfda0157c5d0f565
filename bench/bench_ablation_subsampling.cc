// Ablation (Section 6.1): minibatch DPSGD with Poisson subsampling.
//
// The paper runs batch gradient descent (q = 1) because it matches the DP
// adversary's auxiliary knowledge; practical DPSGD subsamples. Two effects
// to quantify against the subsampled-Gaussian RDP accountant:
//   (a) privacy amplification — for fixed noise z, the certified epsilon
//       falls as q falls;
//   (b) the implementable mixture adversary's empirical advantage falls
//       accordingly and the posterior-belief bound keeps holding.

#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "core/experiment.h"
#include "core/scores.h"
#include "core/trace.h"

namespace dpaudit {
namespace {

using bench::BenchParams;
using bench::Task;

void Run() {
  BenchParams params;
  bench::PrintHeader("Ablation: Poisson-subsampled DPSGD", params);
  Task task = bench::MakePurchaseTask(params);
  TraceStore* store = TraceStore::FromEnv();
  if (store != nullptr) {
    std::cerr << "trace cache: " << store->directory() << "\n";
  }

  const double delta = task.delta;
  const size_t steps = params.epochs;

  // (a) amplification: fixed noise, epsilon vs q.
  TableWriter amplification({"q", "z", "epsilon certified", "rho_beta",
                             "rho_alpha"});
  const double fixed_z = 1.5;
  for (double q : {1.0, 0.5, 0.25, 0.1, 0.05}) {
    double eps = *ComposedEpsilonForSampledNoiseMultiplier(q, fixed_z, delta,
                                                           steps);
    amplification.AddRow({TableWriter::Cell(q, 2),
                          TableWriter::Cell(fixed_z, 2),
                          TableWriter::Cell(eps, 3),
                          TableWriter::Cell(*RhoBeta(eps), 4),
                          TableWriter::Cell(*RhoAlpha(eps, delta), 4)});
  }
  bench::Emit("privacy amplification by subsampling (fixed z, k = " +
                  std::to_string(steps) + ")",
              amplification);

  // (b) the mixture adversary against weakly-noised subsampled training.
  TableWriter attack({"q", "z", "Adv (empirical)", "mean beta_k",
                      "max beta_k"});
  size_t reps = std::max<size_t>(12, params.reps);
  for (double q : {1.0, 0.5, 0.2}) {
    // Unbounded neighbours: D' is D minus its dataset-sensitivity-
    // maximizing record x1, the setting of the subsampled-Gaussian bound.
    DiExperimentConfig config;
    config.dpsgd.epochs = steps;
    config.dpsgd.learning_rate = params.learning_rate;
    config.dpsgd.clip_norm = params.clip_norm;
    config.dpsgd.noise_multiplier = 0.5;  // weak noise: q does the protecting
    config.dpsgd.neighbor_mode = NeighborMode::kUnbounded;
    config.dpsgd.sampling_rate = q;
    config.repetitions = reps;
    config.seed = params.seed;
    config.trace_store = store;
    auto summary = RunDiExperiment(task.architecture, task.d,
                                   task.d_prime_unbounded, config);
    DPAUDIT_CHECK_OK(summary.status());
    const std::vector<double> beliefs = summary->FinalBeliefsInD();
    double mean_belief = 0.0;
    for (double b : beliefs) mean_belief += b;
    mean_belief /= static_cast<double>(beliefs.size());
    attack.AddRow({TableWriter::Cell(q, 2),
                   TableWriter::Cell(config.dpsgd.noise_multiplier, 2),
                   TableWriter::Cell(summary->EmpiricalAdvantage(), 3),
                   TableWriter::Cell(mean_belief, 4),
                   TableWriter::Cell(summary->MaxBeliefInD(), 4)});
  }
  bench::Emit("mixture adversary vs sampling rate (Purchase-100)", attack);
  std::cout << "\nexpected shape: certified epsilon and empirical advantage "
               "both fall as q falls; beliefs drift toward 0.5\n";
}

}  // namespace
}  // namespace dpaudit

int main(int argc, char** argv) {
  dpaudit::bench::InitBenchRuntime(&argc, argv);
  dpaudit::Run();
  dpaudit::obs::FlushTelemetry();
  return 0;
}
