// Table 2: empirical Adv^DI,Gau and empirical delta using LS and GS with
// bounded (B) and unbounded (U) DP, for both tasks at rho_beta = 0.9.
//
// Paper reference values (250 reps): MNIST Adv = 0.24/0.23/0.18/0.27 and
// Purchase Adv = 0.25/0.23/0.1/0.24 for LS-B / LS-U / GS-B / GS-U, with
// empirical delta at or near 0. The shape to reproduce: LS rows sit at the
// rho_alpha target; the GS bounded row falls clearly below it.

#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "core/scores.h"
#include "core/sweep_scheduler.h"
#include "core/trace.h"
#include "dp/privacy_params.h"
#include "stats/summary.h"

namespace dpaudit {
namespace {

using bench::BenchParams;
using bench::Task;

struct Scenario {
  const char* sensitivity_label;
  const char* dp_label;
  SensitivityMode sensitivity;
  NeighborMode neighbors;
};

constexpr Scenario kScenarios[] = {
    {"LS", "B", SensitivityMode::kLocalHat, NeighborMode::kBounded},
    {"LS", "U", SensitivityMode::kLocalHat, NeighborMode::kUnbounded},
    {"GS", "B", SensitivityMode::kGlobal, NeighborMode::kBounded},
    {"GS", "U", SensitivityMode::kGlobal, NeighborMode::kUnbounded},
};

void Run() {
  BenchParams params;
  bench::PrintHeader("Table 2: empirical advantage and delta", params);
  const double rho_beta = 0.9;
  const double epsilon = *EpsilonForRhoBeta(rho_beta);

  Task tasks[] = {bench::MakeMnistTask(params),
                  bench::MakePurchaseTask(params)};

  // All 8 (task, scenario) experiments flatten into one dynamically
  // dispatched trial grid (core/sweep_scheduler.h); calibration runs on the
  // workers and the trace store is resolved once for the whole table.
  std::vector<SweepCell> cells;
  for (const Task& task : tasks) {
    for (const Scenario& scenario : kScenarios) {
      SweepCell cell;
      cell.architecture = &task.architecture;
      cell.d = &task.d;
      cell.d_prime = &bench::NeighborFor(task, scenario.neighbors);
      cell.config.repetitions = params.reps;
      cell.config.seed = params.seed;
      cell.configure = [&params, &task, epsilon,
                        scenario](DiExperimentConfig* config) {
        DiExperimentConfig base = bench::MakeScenarioConfig(
            params, task, epsilon, scenario.sensitivity, scenario.neighbors);
        base.repetitions = config->repetitions;
        *config = base;
        return Status::Ok();
      };
      cells.push_back(std::move(cell));
    }
  }
  SweepOptions options;
  options.trace_store = TraceStore::FromEnv();
  auto summaries = RunSweep(cells, options);

  TableWriter table({"Delta f", "DP", "dataset", "rho_alpha target",
                     "Adv^DI,Gau", "Adv 95% lo", "Adv 95% hi",
                     "empirical delta"});
  size_t cell_index = 0;
  for (const Task& task : tasks) {
    double rho_alpha = *RhoAlpha(epsilon, task.delta);
    for (const Scenario& scenario : kScenarios) {
      const StatusOr<DiExperimentSummary>& summary = summaries[cell_index++];
      DPAUDIT_CHECK_OK(summary.status());
      size_t wins = 0;
      for (const DiTrialResult& trial : summary->trials) {
        if (trial.Success()) ++wins;
      }
      Interval ci = WilsonInterval(wins, summary->trials.size());
      table.AddRow({scenario.sensitivity_label, scenario.dp_label, task.name,
                    TableWriter::Cell(rho_alpha, 3),
                    TableWriter::Cell(summary->EmpiricalAdvantage(), 3),
                    TableWriter::Cell(2.0 * ci.lo - 1.0, 3),
                    TableWriter::Cell(2.0 * ci.hi - 1.0, 3),
                    TableWriter::Cell(summary->EmpiricalDelta(rho_beta), 4)});
    }
  }
  bench::Emit("Table 2 (rho_beta = 0.9, eps = 2.2)", table);
  std::cout << "\nexpected shape: LS rows' advantage ~ rho_alpha target; GS "
               "bounded row clearly below target; empirical delta ~ 0\n";
}

}  // namespace
}  // namespace dpaudit

int main(int argc, char** argv) {
  dpaudit::bench::InitBenchRuntime(&argc, argv);
  dpaudit::Run();
  dpaudit::obs::FlushTelemetry();
  return 0;
}
