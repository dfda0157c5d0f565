// Ablation (Section 7): adaptive clipping (Thakkar et al.) vs the fixed
// C = 3 the paper uses.
//
// The paper conjectures that adapting C to the shrinking gradient norms over
// training would (a) improve utility and (b) bring the audited epsilon'
// closer to the target under global sensitivity. This bench measures both:
// test accuracy and the three epsilon' estimators, fixed vs adaptive C, at
// rho_beta = 0.9 on the MNIST-like task.

#include <iostream>

#include "bench/bench_common.h"
#include "core/auditor.h"
#include "core/scores.h"
#include "dp/privacy_params.h"
#include "stats/summary.h"

namespace dpaudit {
namespace {

using bench::BenchParams;
using bench::Task;

void Run() {
  BenchParams params;
  bench::PrintHeader("Ablation: adaptive clipping", params);
  Task task = bench::MakeMnistTask(params);
  const double epsilon = *EpsilonForRhoBeta(0.9);

  TableWriter table({"clipping", "Delta f", "mean C (last step)",
                     "acc mean", "Adv^DI,Gau", "eps' (sens.)"});
  for (bool adaptive : {false, true}) {
    for (SensitivityMode mode :
         {SensitivityMode::kGlobal, SensitivityMode::kLocalHat}) {
      DiExperimentConfig config = bench::MakeScenarioConfig(
          params, task, epsilon, mode, NeighborMode::kBounded);
      config.dpsgd.adaptive_clipping = adaptive;
      auto summary = RunDiExperiment(task.architecture, task.d,
                                     task.d_prime_bounded, config,
                                     &task.test);
      DPAUDIT_CHECK_OK(summary.status());
      // Realized clip norm at the final step, averaged over trials. The
      // trainer records it; reconstruct from sigma for GS mode (sigma =
      // z * 2C) or report the configured C for fixed clipping.
      RunningSummary final_sigma;
      for (const DiTrialResult& trial : summary->trials) {
        final_sigma.Add(trial.steps.back().sigma);
      }
      double final_clip =
          mode == SensitivityMode::kGlobal
              ? final_sigma.mean() / (2.0 * config.dpsgd.noise_multiplier)
              : (adaptive ? -1.0 : config.dpsgd.clip_norm);
      double eps_sens =
          *EpsilonFromSensitivities(*summary, task.delta);
      table.AddRow({adaptive ? "adaptive" : "fixed C=3",
                    SensitivityModeToString(mode),
                    final_clip < 0 ? "n/a" : TableWriter::Cell(final_clip, 3),
                    TableWriter::Cell(Mean(summary->TestAccuracies()), 4),
                    TableWriter::Cell(summary->EmpiricalAdvantage(), 3),
                    TableWriter::Cell(eps_sens, 3)});
    }
  }
  bench::Emit("MNIST: fixed vs adaptive clipping (rho_beta = 0.9)", table);
  std::cout << "\nexpected shape: adaptive clipping moves C toward the "
               "median per-example gradient norm — DOWN when the initial C "
               "over-clips, UP (as here, where raw norms exceed C = 3) when "
               "it under-clips. In GS mode sigma = z * 2C follows C, so "
               "growing C trades utility for slack (eps' sinks further "
               "below the target " << epsilon << "); in LS mode eps' stays "
               "pinned at the target regardless, since noise tracks the "
               "factual sensitivity. Whether adaptation helps utility "
               "depends on where C starts relative to the norms (cf. the "
               "paper's C-is-a-balance discussion in Section 7).\n";
}

}  // namespace
}  // namespace dpaudit

int main(int argc, char** argv) {
  dpaudit::bench::InitBenchRuntime(&argc, argv);
  dpaudit::Run();
  dpaudit::obs::FlushTelemetry();
  return 0;
}
