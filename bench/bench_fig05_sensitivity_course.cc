// Figure 5: sensitivities over the course of training for rho_beta = 0.9
// (epsilon = 2.2) and C = 3.
//
// Plots (as a per-step series) the global sensitivity reference (C for
// unbounded, 2C for bounded) against the mean realized local sensitivity
// LS_i = ||S_D - S_D'|| at each step, for both neighboring notions. The
// paper's observation: LS stays at or below GS, with bounded LS < 2C
// (the two differing clipped gradients do not point in opposite directions)
// and unbounded LS pinned near C while per-example gradients exceed C.

#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "core/scores.h"
#include "dp/privacy_params.h"
#include "stats/summary.h"

namespace dpaudit {
namespace {

using bench::BenchParams;
using bench::Task;

std::vector<RunningSummary> PerStepSensitivities(
    const BenchParams& params, const Task& task, NeighborMode neighbors) {
  DiExperimentConfig config = bench::MakeScenarioConfig(
      params, task, *EpsilonForRhoBeta(0.9), SensitivityMode::kGlobal,
      neighbors);
  auto summary = RunDiExperiment(task.architecture, task.d,
                                 bench::NeighborFor(task, neighbors), config);
  DPAUDIT_CHECK_OK(summary.status());
  std::vector<RunningSummary> per_step(params.epochs);
  for (const DiTrialResult& trial : summary->trials) {
    for (size_t i = 0; i < trial.steps.size(); ++i) {
      per_step[i].Add(trial.steps[i].local_sensitivity);
    }
  }
  return per_step;
}

void RunTask(const BenchParams& params, const Task& task) {
  std::vector<RunningSummary> bounded =
      PerStepSensitivities(params, task, NeighborMode::kBounded);
  std::vector<RunningSummary> unbounded =
      PerStepSensitivities(params, task, NeighborMode::kUnbounded);

  TableWriter table({"step", "GS bounded (2C)", "LS bounded (mean)",
                     "LS bounded (max)", "GS unbounded (C)",
                     "LS unbounded (mean)", "LS unbounded (max)"});
  for (size_t i = 0; i < params.epochs; ++i) {
    table.AddRow({TableWriter::Cell(i),
                  TableWriter::Cell(2.0 * params.clip_norm, 2),
                  TableWriter::Cell(bounded[i].mean(), 4),
                  TableWriter::Cell(bounded[i].max(), 4),
                  TableWriter::Cell(params.clip_norm, 2),
                  TableWriter::Cell(unbounded[i].mean(), 4),
                  TableWriter::Cell(unbounded[i].max(), 4)});
  }
  bench::Emit(task.name + ": sensitivities over training (rho_beta=0.9, "
                          "eps=2.2, C=3)",
              table);
}

void Run() {
  BenchParams params;
  bench::PrintHeader("Figure 5: sensitivity course", params);
  RunTask(params, bench::MakeMnistTask(params));
  RunTask(params, bench::MakePurchaseTask(params));
  std::cout << "\nexpected shape: LS bounded < 2C; LS unbounded <= C and "
               "close to C while per-example gradients saturate the clip\n";
}

}  // namespace
}  // namespace dpaudit

int main(int argc, char** argv) {
  dpaudit::bench::InitBenchRuntime(&argc, argv);
  dpaudit::Run();
  dpaudit::obs::FlushTelemetry();
  return 0;
}
