// Shared experiment setup for the figure/table reproduction binaries.
//
// Every binary prints the paper's rows/series as an aligned text table plus
// CSV. Dataset sizes and repetition counts default to bench-friendly values
// chosen so the whole bench/ directory runs in minutes on a laptop CPU;
// paper-scale settings are reachable via environment variables:
//   DPAUDIT_REPS            experiment repetitions (paper: 250 / 1000)
//   DPAUDIT_MNIST_N         |D| for the MNIST-like task (paper: 100)
//   DPAUDIT_PURCHASE_N      |D| for the Purchase-like task (paper: 1000)
//   DPAUDIT_EPOCHS          training steps k (paper: 30)
//   DPAUDIT_SEED            root seed
//
// Runtime knobs: every binary accepts the shared runtime flags
// (--threads, --lanes, --telemetry, --retries, --checkpoint, ... — see
// core/runtime_options.h or `--help`) through InitBenchRuntime, with
// precedence CLI flag > DPAUDIT_* environment variable > default. With
// telemetry enabled the binary writes a hierarchical phase profile, a
// Prometheus exposition of its counters, a Chrome trace, and the audit
// ledger at exit. Every experiment a binary runs, through RunSweep or
// RunDiExperiment, takes --trace-cache, --checkpoint and --retries from
// SweepOptionsFromRuntime (core/sweep_scheduler.h): --checkpoint=<file>
// adds a sweep checkpoint journal that makes an interrupted run resumable.
// Exports go to stderr/files only, so stdout stays byte-identical with
// telemetry on or off.

#ifndef DPAUDIT_BENCH_BENCH_COMMON_H_
#define DPAUDIT_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "core/runtime_options.h"
#include "core/sweep_journal.h"
#include "data/dataset_sensitivity.h"
#include "data/dissimilarity.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_purchase.h"
#include "dp/privacy_params.h"
#include "dp/rdp_accountant.h"
#include "nn/network.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace bench {

/// The one-call runtime setup every bench binary does first thing in main:
/// parses the shared runtime flags out of argv (precedence: flag > DPAUDIT_*
/// env > default), handles --help, publishes and applies the options and
/// starts telemetry. Exits with an actionable message on a malformed flag. Call before any parallel region
/// so every phase lands in the profile and the knobs take effect.
inline void InitBenchRuntime(int* argc, char** argv) {
  // Record the pre-strip command line so `dpaudit_cli sweep resume` can
  // re-execute this exact invocation from the journal manifest.
  RecordCommandLineForJournal(*argc, argv);
  StatusOr<RuntimeOptions> options = RuntimeOptions::FromEnvAndArgs(argc,
                                                                    argv);
  if (!options.ok()) {
    std::cerr << argv[0] << ": " << options.status().message() << "\n"
              << "run with --help for the runtime flag table\n";
    std::exit(2);
  }
  if (options->help) {
    PrintRuntimeOptionsHelp(argv[0], std::cout);
    std::exit(0);
  }
  InitRuntimeOptions(*options);
  DPAUDIT_CHECK_OK(ApplyRuntimeOptions(*options));
  obs::InitTelemetry(argv[0], {options->telemetry_enabled,
                               options->telemetry_dir});
}

struct BenchParams {
  size_t reps = static_cast<size_t>(EnvInt64("DPAUDIT_REPS", 24));
  size_t mnist_n = static_cast<size_t>(EnvInt64("DPAUDIT_MNIST_N", 30));
  size_t purchase_n =
      static_cast<size_t>(EnvInt64("DPAUDIT_PURCHASE_N", 40));
  size_t epochs = static_cast<size_t>(EnvInt64("DPAUDIT_EPOCHS", 30));
  uint64_t seed = static_cast<uint64_t>(EnvInt64("DPAUDIT_SEED", 42));
  double learning_rate = 0.005;  // paper Table 1
  double clip_norm = 3.0;        // paper Table 1
};

/// One of the paper's two evaluation tasks, fully materialized: training set
/// D, the dataset-sensitivity-maximizing neighbors for bounded and unbounded
/// DP, a candidate pool, a test split, and the model architecture.
struct Task {
  std::string name;
  double delta;  // paper: 1/|D| -> 0.001 (MNIST), 0.01 (Purchase)
  Dataset d;
  Dataset d_prime_bounded;    // max-DS replacement neighbor (Definition 6)
  Dataset d_prime_unbounded;  // max-DS removal neighbor
  Dataset pool;               // U \ D, for bounded substitutions
  Dataset test;
  Network architecture;
  DissimilarityFn dissimilarity;
};

/// Builds the MNIST-like task: synthetic digits, SSIM dissimilarity, the
/// paper's conv/norm/pool architecture (Section 6.2).
inline Task MakeMnistTask(const BenchParams& params) {
  DPAUDIT_SPAN("task_setup");
  Task task;
  task.name = "MNIST";
  task.delta = 0.001;  // paper keeps delta = 1/100 for |D| = 100
  SyntheticMnistConfig config;
  Rng rng(params.seed ^ 0x6d6e6973);  // task-specific stream
  Dataset all = GenerateSyntheticMnist(params.mnist_n * 3, config, rng);
  Dataset rest;
  task.d = all.SampleSplit(params.mnist_n, rng, &rest);
  task.pool = rest.SampleSplit(params.mnist_n, rng, &task.test);
  task.dissimilarity = NegativeSsim;

  auto bounded =
      RankBoundedCandidates(task.d, task.pool, task.dissimilarity);
  DPAUDIT_CHECK_OK(bounded.status());
  task.d_prime_bounded =
      MakeBoundedNeighbor(task.d, task.pool, bounded->front());
  auto unbounded = RankUnboundedCandidates(task.d, task.dissimilarity);
  DPAUDIT_CHECK_OK(unbounded.status());
  task.d_prime_unbounded =
      MakeUnboundedNeighbor(task.d, unbounded->front());

  task.architecture = BuildMnistNetwork(config.image_size,
                                        /*conv1_filters=*/4,
                                        /*conv2_filters=*/8);
  return task;
}

/// Builds the Purchase-100-like task: binary baskets, Hamming dissimilarity,
/// the paper's 600-128-100 dense architecture with class count reduced to
/// keep bench wall-clock low (env-tunable data size).
inline Task MakePurchaseTask(const BenchParams& params) {
  DPAUDIT_SPAN("task_setup");
  Task task;
  task.name = "Purchase-100";
  task.delta = 0.01;  // paper: 1/1000 rounded up to 0.01 in Table 1
  SyntheticPurchaseConfig config;
  config.num_classes = 30;  // bench default; structure is unchanged
  SyntheticPurchaseGenerator generator(config, params.seed ^ 0x70757263);
  Rng rng(params.seed ^ 0x62617367);
  Dataset all = generator.Generate(params.purchase_n * 3, rng);
  Dataset rest;
  task.d = all.SampleSplit(params.purchase_n, rng, &rest);
  task.pool = rest.SampleSplit(params.purchase_n, rng, &task.test);
  task.dissimilarity = HammingDistance;

  auto bounded =
      RankBoundedCandidates(task.d, task.pool, task.dissimilarity);
  DPAUDIT_CHECK_OK(bounded.status());
  task.d_prime_bounded =
      MakeBoundedNeighbor(task.d, task.pool, bounded->front());
  auto unbounded = RankUnboundedCandidates(task.d, task.dissimilarity);
  DPAUDIT_CHECK_OK(unbounded.status());
  task.d_prime_unbounded =
      MakeUnboundedNeighbor(task.d, unbounded->front());

  task.architecture = BuildPurchaseNetwork(config.num_features,
                                           /*hidden_units=*/48,
                                           config.num_classes);
  return task;
}

/// Experiment config for one of the paper's four sensitivity scenarios, with
/// noise calibrated through the RDP accountant so the k-step composition
/// spends exactly `epsilon` at the task's delta.
inline DiExperimentConfig MakeScenarioConfig(const BenchParams& params,
                                             const Task& task, double epsilon,
                                             SensitivityMode sensitivity,
                                             NeighborMode neighbors) {
  DiExperimentConfig config;
  config.dpsgd.epochs = params.epochs;
  config.dpsgd.learning_rate = params.learning_rate;
  config.dpsgd.clip_norm = params.clip_norm;
  StatusOr<double> z =
      NoiseMultiplierForTargetEpsilon(epsilon, task.delta, params.epochs);
  DPAUDIT_CHECK_OK(z.status());
  config.dpsgd.noise_multiplier = *z;
  config.dpsgd.sensitivity_mode = sensitivity;
  config.dpsgd.neighbor_mode = neighbors;
  config.repetitions = params.reps;
  config.seed = params.seed;
  return config;
}

inline const Dataset& NeighborFor(const Task& task, NeighborMode mode) {
  return mode == NeighborMode::kBounded ? task.d_prime_bounded
                                        : task.d_prime_unbounded;
}

/// Prints a table twice: boxed text for humans, CSV for scripts.
inline void Emit(const std::string& title, const TableWriter& table) {
  std::cout << "\n== " << title << " ==\n";
  table.RenderText(std::cout);
  std::cout << "-- csv --\n";
  table.RenderCsv(std::cout);
}

inline void PrintHeader(const std::string& what, const BenchParams& params) {
  // The simd/threads line prints unconditionally (not gated on telemetry) so
  // stdout is byte-identical with telemetry on or off.
  std::cout << "dpaudit experiment: " << what << "\n"
            << "reps=" << params.reps << " epochs=" << params.epochs
            << " |D|_mnist=" << params.mnist_n
            << " |D|_purchase=" << params.purchase_n
            << " seed=" << params.seed << "\n"
            << "simd=" << obs::ActiveSimdDispatch()
            << " threads=" << DefaultThreadCount() << "\n"
            << "(paper-scale via DPAUDIT_REPS / DPAUDIT_MNIST_N / "
               "DPAUDIT_PURCHASE_N / DPAUDIT_EPOCHS)\n";
}

}  // namespace bench
}  // namespace dpaudit

#endif  // DPAUDIT_BENCH_BENCH_COMMON_H_
