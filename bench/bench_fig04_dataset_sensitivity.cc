// Figure 4: distribution of the empirical local sensitivity
// n * ||g_hat(D) - g_hat(D')|| when D' is chosen by the dataset-sensitivity
// heuristic (Definition 6), for the top-3 candidates that MAXIMIZE DS versus
// the 3 that MINIMIZE it.
//
// The paper's claim: data-space dissimilarity (SSIM for MNIST, Hamming for
// Purchase) predicts gradient-space sensitivity, with a downward trend from
// the max-DS choice to the min-DS choice.

#include <iostream>

#include "bench/bench_common.h"
#include "core/dpsgd.h"
#include "data/dataset.h"
#include "dp/privacy_params.h"
#include "stats/summary.h"

namespace dpaudit {
namespace {

using bench::BenchParams;
using bench::Task;

void RunTask(const BenchParams& params, const Task& task) {
  auto ranked = RankBoundedCandidates(task.d, task.pool, task.dissimilarity);
  DPAUDIT_CHECK_OK(ranked.status());
  DPAUDIT_CHECK_GE(ranked->size(), 6u);

  struct Choice {
    std::string label;
    BoundedCandidate candidate;
  };
  std::vector<Choice> choices;
  for (size_t i = 0; i < 3; ++i) {
    choices.push_back({"max-" + std::to_string(i + 1), (*ranked)[i]});
  }
  for (size_t i = 0; i < 3; ++i) {
    choices.push_back({"min-" + std::to_string(3 - i),
                       (*ranked)[ranked->size() - 3 + i]});
  }

  TableWriter table({"D' choice", "DS(D,D')", "LS mean", "LS p25",
                     "LS median", "LS p75", "LS max"});
  size_t reps = std::max<size_t>(8, params.reps / 2);
  for (const Choice& choice : choices) {
    Dataset neighbor = MakeBoundedNeighbor(task.d, task.pool,
                                           choice.candidate);
    DiExperimentConfig config = bench::MakeScenarioConfig(
        params, task, /*epsilon=*/2.2, SensitivityMode::kGlobal,
        NeighborMode::kBounded);
    config.repetitions = reps;
    auto summary =
        RunDiExperiment(task.architecture, task.d, neighbor, config);
    DPAUDIT_CHECK_OK(summary.status());
    std::vector<double> sensitivities;
    for (const DiTrialResult& trial : summary->trials) {
      for (const StepRecord& step : trial.steps) {
        sensitivities.push_back(step.local_sensitivity);
      }
    }
    table.AddRow({choice.label,
                  TableWriter::Cell(choice.candidate.dissimilarity, 4),
                  TableWriter::Cell(Mean(sensitivities), 4),
                  TableWriter::Cell(Quantile(sensitivities, 0.25), 4),
                  TableWriter::Cell(Quantile(sensitivities, 0.5), 4),
                  TableWriter::Cell(Quantile(sensitivities, 0.75), 4),
                  TableWriter::Cell(Quantile(sensitivities, 1.0), 4)});
  }
  bench::Emit(task.name + ": LS distribution per D' choice (bounded DP, "
                          "rho_beta=0.9)",
              table);
}

void Run() {
  BenchParams params;
  bench::PrintHeader("Figure 4: dataset sensitivity vs gradient sensitivity",
                     params);
  RunTask(params, bench::MakeMnistTask(params));
  RunTask(params, bench::MakePurchaseTask(params));
  std::cout << "\nexpected shape: max-* rows dominate min-* rows (downward "
               "trend from max to min DS)\n";
}

}  // namespace
}  // namespace dpaudit

int main(int argc, char** argv) {
  dpaudit::bench::InitBenchRuntime(&argc, argv);
  dpaudit::Run();
  dpaudit::obs::FlushTelemetry();
  return 0;
}
