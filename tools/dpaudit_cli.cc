// dpaudit command-line tool.
//
//   dpaudit_cli scores --epsilon 2.2 --delta 0.001
//       Print the identifiability scores for a DP guarantee.
//
//   dpaudit_cli plan --rho-beta 0.9 --delta 0.001 --steps 30
//   dpaudit_cli plan --rho-alpha 0.23 --delta 0.001 --steps 30
//       Turn an identifiability requirement into a full privacy plan.
//
//   dpaudit_cli experiment --dataset mnist|purchase --epsilon 2.2
//       [--reps 20] [--sensitivity ls|gs] [--neighbors bounded|unbounded]
//       [--epochs 30] [--n 30] [--seed 42] [--save-model weights.dpau]
//       Run the repeated Exp^DI with the DP adversary and print the audit.
//       With DPAUDIT_TRACE_CACHE set, repeated invocations replay the
//       recorded step trace instead of retraining.
//
//   dpaudit_cli trace list [--cache DIR]
//   dpaudit_cli trace show --key HEX [--cache DIR]
//   dpaudit_cli trace evict (--key HEX | --all true) [--cache DIR]
//       Inspect and manage the step-trace cache. --cache defaults to the
//       DPAUDIT_TRACE_CACHE environment variable.
//
//   dpaudit_cli ledger list --file RUN.ledger.jsonl
//   dpaudit_cli ledger show --file RUN.ledger.jsonl [--seq N]
//   dpaudit_cli ledger check --file RUN.ledger.jsonl [--tolerance 1e-9]
//   dpaudit_cli ledger diff --a A.ledger.jsonl --b B.ledger.jsonl
//       Inspect and verify a privacy-audit ledger written by a --telemetry
//       run. `check` recomputes the content digests, replays every belief
//       trajectory, and re-derives the three epsilon' estimators from the
//       rows alone, verifying them against the recorded audit values.
//       `diff` compares two runs' ledgers field by field.
//
//   dpaudit_cli sweep status --journal RUN.sweep.jsonl
//   dpaudit_cli sweep resume --journal RUN.sweep.jsonl
//       Inspect a sweep checkpoint journal (core/sweep_journal.h), or
//       re-execute the recorded command with DPAUDIT_SWEEP_CHECKPOINT set so
//       the interrupted sweep resumes where it stopped.
//
// Every command also accepts the shared runtime flags (--threads=N,
// --lanes=N, --retries=N, --telemetry=DIR, ... — see core/runtime_options.h
// or --help); precedence is flag > DPAUDIT_* env > default.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/auditor.h"
#include "core/experiment.h"
#include "core/ledger_verify.h"
#include "core/policy.h"
#include "core/report.h"
#include "core/runtime_options.h"
#include "core/scores.h"
#include "core/sweep_journal.h"
#include "core/trace.h"
#include "data/dataset_sensitivity.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_purchase.h"
#include "dp/rdp_accountant.h"
#include "io/serialization.h"
#include "nn/network.h"
#include "obs/audit_ledger.h"
#include "obs/telemetry.h"
#include "util/arg_parser.h"
#include "util/env.h"

namespace dpaudit {
namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: dpaudit_cli "
      "<scores|plan|experiment|trace|ledger|sweep> [--flags]\n"
      "  scores     --epsilon E --delta D\n"
      "  plan       (--rho-beta B | --rho-alpha A) --delta D "
      "[--steps K]\n"
      "  experiment --dataset mnist|purchase [--epsilon E] "
      "[--reps R]\n"
      "             [--sensitivity ls|gs] [--neighbors "
      "bounded|unbounded]\n"
      "             [--epochs K] [--n N] [--seed S]\n"
      "             [--save-model PATH] [--report PATH.md]\n"
      "             [--telemetry DIR]  (or $DPAUDIT_TELEMETRY)\n"
      "  trace      list | show --key HEX | evict (--key HEX | "
      "--all true)\n"
      "             [--cache DIR]  (default: $DPAUDIT_TRACE_CACHE)\n"
      "  ledger     list --file F | show --file F [--seq N]\n"
      "             | check --file F [--tolerance 1e-9]\n"
      "             | diff --a F --b F\n"
      "  sweep      status --journal F | resume --journal F\n"
      "shared runtime flags (--threads=N, --retries=N, ...): --help\n");
}

Status RunScores(const ArgParser& args) {
  DPAUDIT_ASSIGN_OR_RETURN(double epsilon, args.GetDouble("epsilon", 2.2));
  DPAUDIT_ASSIGN_OR_RETURN(double delta, args.GetDouble("delta", 1e-3));
  DPAUDIT_RETURN_IF_ERROR(args.CheckAllConsumed());
  DPAUDIT_ASSIGN_OR_RETURN(double rho_beta, RhoBeta(epsilon));
  DPAUDIT_ASSIGN_OR_RETURN(double rho_alpha, RhoAlpha(epsilon, delta));
  std::printf("(%g, %g)-DP corresponds to:\n", epsilon, delta);
  std::printf("  rho_beta  (max posterior belief)     = %.4f\n", rho_beta);
  std::printf("  rho_alpha (expected adv., Gaussian)  = %.4f\n", rho_alpha);
  return Status::Ok();
}

Status RunPlan(const ArgParser& args) {
  IdentifiabilityRequirement requirement;
  DPAUDIT_ASSIGN_OR_RETURN(double delta, args.GetDouble("delta", 1e-3));
  DPAUDIT_ASSIGN_OR_RETURN(int64_t steps, args.GetInt("steps", 30));
  requirement.delta = delta;
  requirement.steps = static_cast<size_t>(steps);
  bool has_beta = args.Has("rho-beta");
  bool has_alpha = args.Has("rho-alpha");
  if (has_beta == has_alpha) {
    return Status::InvalidArgument(
        "pass exactly one of --rho-beta / --rho-alpha");
  }
  if (has_beta) {
    requirement.kind = RequirementKind::kMaxPosteriorBelief;
    DPAUDIT_ASSIGN_OR_RETURN(requirement.bound,
                             args.GetDouble("rho-beta", 0.9));
  } else {
    requirement.kind = RequirementKind::kMaxExpectedAdvantage;
    DPAUDIT_ASSIGN_OR_RETURN(requirement.bound,
                             args.GetDouble("rho-alpha", 0.2));
  }
  DPAUDIT_RETURN_IF_ERROR(args.CheckAllConsumed());
  DPAUDIT_ASSIGN_OR_RETURN(PrivacyPlan plan, MakePrivacyPlan(requirement));
  std::printf("%s\n", plan.ToString().c_str());
  return Status::Ok();
}

Status RunExperiment(const ArgParser& args) {
  std::string dataset_name = args.GetString("dataset", "mnist");
  DPAUDIT_ASSIGN_OR_RETURN(double epsilon, args.GetDouble("epsilon", 2.2));
  DPAUDIT_ASSIGN_OR_RETURN(int64_t reps, args.GetInt("reps", 20));
  DPAUDIT_ASSIGN_OR_RETURN(int64_t epochs, args.GetInt("epochs", 30));
  DPAUDIT_ASSIGN_OR_RETURN(int64_t n, args.GetInt("n", 30));
  DPAUDIT_ASSIGN_OR_RETURN(int64_t seed, args.GetInt("seed", 42));
  std::string sensitivity = args.GetString("sensitivity", "ls");
  std::string neighbors = args.GetString("neighbors", "bounded");
  std::string save_model = args.GetString("save-model", "");
  std::string report_path = args.GetString("report", "");
  std::string telemetry_dir = args.GetString("telemetry", "");
  DPAUDIT_RETURN_IF_ERROR(args.CheckAllConsumed());

  obs::TelemetryOptions telemetry = obs::TelemetryOptionsFromEnv();
  const RuntimeOptions& runtime = CurrentRuntimeOptions();
  if (runtime.telemetry_enabled) {
    // --telemetry=DIR goes through the shared runtime flags (stripped in
    // Main); the historical "--telemetry DIR" space form below still wins.
    telemetry.enabled = true;
    telemetry.directory = runtime.telemetry_dir;
  }
  if (!telemetry_dir.empty()) {
    telemetry.enabled = true;
    telemetry.directory = telemetry_dir;
  }
  obs::InitTelemetry("dpaudit_cli", telemetry);

  if (n < 4) return Status::InvalidArgument("--n must be >= 4");
  NeighborMode neighbor_mode;
  if (neighbors == "bounded") {
    neighbor_mode = NeighborMode::kBounded;
  } else if (neighbors == "unbounded") {
    neighbor_mode = NeighborMode::kUnbounded;
  } else {
    return Status::InvalidArgument("--neighbors must be bounded|unbounded");
  }
  SensitivityMode sensitivity_mode;
  if (sensitivity == "ls") {
    sensitivity_mode = SensitivityMode::kLocalHat;
  } else if (sensitivity == "gs") {
    sensitivity_mode = SensitivityMode::kGlobal;
  } else {
    return Status::InvalidArgument("--sensitivity must be ls|gs");
  }

  // Build the task.
  Rng rng(static_cast<uint64_t>(seed));
  Dataset d;
  Dataset pool;
  DissimilarityFn dissimilarity;
  Network architecture;
  double delta;
  if (dataset_name == "mnist") {
    SyntheticMnistConfig config;
    Dataset all =
        GenerateSyntheticMnist(2 * static_cast<size_t>(n), config, rng);
    d = all.SampleSplit(static_cast<size_t>(n), rng, &pool);
    dissimilarity = NegativeSsim;
    architecture = BuildMnistNetwork(config.image_size, 4, 8);
    delta = 1.0 / static_cast<double>(n);
  } else if (dataset_name == "purchase") {
    SyntheticPurchaseConfig config;
    config.num_classes = 30;
    SyntheticPurchaseGenerator generator(config,
                                         static_cast<uint64_t>(seed) ^ 0x77);
    Dataset all = generator.Generate(2 * static_cast<size_t>(n), rng);
    d = all.SampleSplit(static_cast<size_t>(n), rng, &pool);
    dissimilarity = HammingDistance;
    architecture =
        BuildPurchaseNetwork(config.num_features, 48, config.num_classes);
    delta = 1.0 / static_cast<double>(n);
  } else {
    return Status::InvalidArgument("--dataset must be mnist|purchase");
  }

  // Worst-case neighbor via dataset sensitivity.
  Dataset d_prime;
  if (neighbor_mode == NeighborMode::kBounded) {
    DPAUDIT_ASSIGN_OR_RETURN(std::vector<BoundedCandidate> ranked,
                             RankBoundedCandidates(d, pool, dissimilarity));
    d_prime = MakeBoundedNeighbor(d, pool, ranked.front());
  } else {
    DPAUDIT_ASSIGN_OR_RETURN(std::vector<UnboundedCandidate> ranked,
                             RankUnboundedCandidates(d, dissimilarity));
    d_prime = MakeUnboundedNeighbor(d, ranked.front());
  }

  DiExperimentConfig config;
  config.dpsgd.epochs = static_cast<size_t>(epochs);
  config.dpsgd.learning_rate = 0.005;
  config.dpsgd.clip_norm = 3.0;
  DPAUDIT_ASSIGN_OR_RETURN(
      config.dpsgd.noise_multiplier,
      NoiseMultiplierForTargetEpsilon(epsilon, delta,
                                      static_cast<size_t>(epochs)));
  config.dpsgd.sensitivity_mode = sensitivity_mode;
  config.dpsgd.neighbor_mode = neighbor_mode;
  config.repetitions = static_cast<size_t>(reps);
  config.seed = static_cast<uint64_t>(seed);
  config.trace_store = TraceStore::FromEnv();

  std::printf("running Exp^DI: %s, |D|=%lld, eps=%g, delta=%g, k=%lld, "
              "z=%.3f, %s/%s, %lld reps\n",
              dataset_name.c_str(), static_cast<long long>(n), epsilon,
              delta, static_cast<long long>(epochs),
              config.dpsgd.noise_multiplier,
              SensitivityModeToString(sensitivity_mode),
              NeighborModeToString(neighbor_mode),
              static_cast<long long>(reps));

  DPAUDIT_ASSIGN_OR_RETURN(DiExperimentSummary summary,
                           RunDiExperiment(architecture, d, d_prime, config));
  DPAUDIT_ASSIGN_OR_RETURN(AuditReport report,
                           AuditExperiment(summary, delta));
  DPAUDIT_ASSIGN_OR_RETURN(double rho_alpha, RhoAlpha(epsilon, delta));
  DPAUDIT_ASSIGN_OR_RETURN(double rho_beta, RhoBeta(epsilon));

  std::printf("\nresults over %zu runs:\n", summary.trials.size());
  std::printf("  empirical advantage     = %.3f   (rho_alpha %.3f)\n",
              summary.EmpiricalAdvantage(), rho_alpha);
  std::printf("  max posterior belief    = %.3f   (rho_beta  %.3f)\n",
              summary.MaxBeliefInD(), rho_beta);
  std::printf("  empirical delta         = %.4f  (delta      %.4f)\n",
              summary.EmpiricalDelta(rho_beta), delta);
  std::printf("  eps' from sensitivities = %.3f   (target eps %.3f)\n",
              report.epsilon_from_sensitivities, epsilon);
  std::printf("  eps' from max belief    = %.3f\n",
              report.epsilon_from_belief);
  std::printf("  eps' from advantage     = %.3f\n",
              report.epsilon_from_advantage);
  DPAUDIT_ASSIGN_OR_RETURN(EpsilonInterval interval,
                           EpsilonIntervalFromAdvantage(summary, delta));
  std::printf("  eps' 95%% interval (adv) = [%.3f, %.3f]\n", interval.lo,
              interval.hi);

  if (!report_path.empty()) {
    DPAUDIT_ASSIGN_OR_RETURN(
        PrivacyPlan plan,
        PlanFromPrivacyParams({epsilon, delta},
                              static_cast<size_t>(epochs)));
    DPAUDIT_ASSIGN_OR_RETURN(
        AuditReportDocument document,
        BuildAuditReport(plan, summary,
                         dataset_name + " (synthetic), |D| = " +
                             std::to_string(n)));
    DPAUDIT_RETURN_IF_ERROR(WriteAuditReport(report_path, document));
    std::printf("  markdown report saved to %s\n", report_path.c_str());
  }

  if (!save_model.empty()) {
    // Retrain once (same seed, trial 0 settings) and persist the weights.
    Rng model_rng(static_cast<uint64_t>(seed));
    Network model = architecture.Clone();
    model.Initialize(model_rng);
    DPAUDIT_ASSIGN_OR_RETURN(
        DpSgdResult trained,
        RunDpSgd(model, d, d_prime, /*train_on_d=*/true, config.dpsgd,
                 model_rng));
    DPAUDIT_RETURN_IF_ERROR(SaveWeights(save_model, trained.model));
    std::printf("  model weights saved to %s\n", save_model.c_str());
  }
  obs::FlushTelemetry();
  return Status::Ok();
}

Status RunTrace(const ArgParser& args) {
  if (args.positional().size() != 2) {
    return Status::InvalidArgument("trace needs an action: list|show|evict");
  }
  const std::string& action = args.positional()[1];
  std::string cache_dir =
      args.GetString("cache", EnvString("DPAUDIT_TRACE_CACHE", ""));
  std::string key = args.GetString("key", "");
  DPAUDIT_ASSIGN_OR_RETURN(bool all, args.GetBool("all", false));
  DPAUDIT_RETURN_IF_ERROR(args.CheckAllConsumed());
  if (cache_dir.empty()) {
    return Status::InvalidArgument(
        "pass --cache DIR or set DPAUDIT_TRACE_CACHE");
  }
  TraceStore store(cache_dir);

  if (action == "list") {
    DPAUDIT_ASSIGN_OR_RETURN(std::vector<TraceStore::Entry> entries,
                             store.List());
    std::printf("trace cache %s: %zu entr%s\n", cache_dir.c_str(),
                entries.size(), entries.size() == 1 ? "y" : "ies");
    for (const TraceStore::Entry& entry : entries) {
      std::printf("  %s  reps=%-4zu steps=%-4zu %llu bytes\n",
                  entry.key.c_str(), entry.repetitions, entry.steps,
                  static_cast<unsigned long long>(entry.bytes));
    }
    const TraceCacheCounters counters = GetTraceCacheCounters();
    std::printf("cache counters (this invocation): hits=%llu misses=%llu "
                "corrupt=%llu evictions=%llu\n",
                static_cast<unsigned long long>(counters.hits),
                static_cast<unsigned long long>(counters.misses),
                static_cast<unsigned long long>(counters.corrupt),
                static_cast<unsigned long long>(counters.evictions));
    return Status::Ok();
  }

  if (action == "show") {
    if (key.empty()) return Status::InvalidArgument("show needs --key HEX");
    DPAUDIT_ASSIGN_OR_RETURN(TraceFingerprint fingerprint,
                             TraceFingerprint::FromHex(key));
    DPAUDIT_ASSIGN_OR_RETURN(ExperimentTrace trace,
                             store.Load(fingerprint));
    DiExperimentSummary summary;
    summary.trials = std::move(trace.trials);
    std::printf("trace %s (%s)\n", key.c_str(),
                store.PathFor(fingerprint).c_str());
    std::printf("  repetitions        = %zu\n", summary.trials.size());
    std::printf("  steps per trial    = %zu\n",
                summary.trials.empty() ? 0 : summary.trials[0].steps.size());
    std::printf("  success rate       = %.3f\n", summary.SuccessRate());
    std::printf("  empirical adv      = %.3f\n",
                summary.EmpiricalAdvantage());
    std::printf("  max belief in D    = %.3f\n", summary.MaxBeliefInD());
    if (!summary.trials.empty()) {
      const DiTrialResult& first = summary.trials[0];
      std::printf("  trial 0: trained_on_d=%d says_d=%d final_belief=%.4f "
                  "max_belief=%.4f\n",
                  first.trained_on_d ? 1 : 0, first.adversary_says_d ? 1 : 0,
                  first.final_belief_d, first.max_belief_d);
      if (!first.steps.empty()) {
        const StepRecord& step = first.steps[0];
        std::printf("  trial 0 step 0: clip=%.4f ls=%.6f used=%.6f "
                    "sigma=%.6f belief=%.4f\n",
                    step.clip_norm, step.local_sensitivity,
                    step.sensitivity_used, step.sigma, step.belief_d);
      }
    }
    return Status::Ok();
  }

  if (action == "evict") {
    if (!all && key.empty()) {
      return Status::InvalidArgument("evict needs --key HEX or --all true");
    }
    if (all) {
      DPAUDIT_ASSIGN_OR_RETURN(size_t removed, store.EvictAll());
      std::printf("evicted %zu entr%s from %s\n", removed,
                  removed == 1 ? "y" : "ies", cache_dir.c_str());
      return Status::Ok();
    }
    DPAUDIT_RETURN_IF_ERROR(store.Evict(key));
    std::printf("evicted %s\n", key.c_str());
    return Status::Ok();
  }

  return Status::InvalidArgument("unknown trace action: " + action);
}

Status RunLedger(const ArgParser& args) {
  if (args.positional().size() != 2) {
    return Status::InvalidArgument(
        "ledger needs an action: list|show|check|diff");
  }
  const std::string& action = args.positional()[1];

  if (action == "diff") {
    std::string path_a = args.GetString("a", "");
    std::string path_b = args.GetString("b", "");
    DPAUDIT_RETURN_IF_ERROR(args.CheckAllConsumed());
    if (path_a.empty() || path_b.empty()) {
      return Status::InvalidArgument("diff needs --a FILE and --b FILE");
    }
    DPAUDIT_ASSIGN_OR_RETURN(obs::LedgerFile a, obs::LoadLedgerFile(path_a));
    DPAUDIT_ASSIGN_OR_RETURN(obs::LedgerFile b, obs::LoadLedgerFile(path_b));
    const size_t differences = obs::DiffLedgers(a, b, std::cout);
    if (differences > 0) {
      return Status::InvalidArgument(
          "ledgers differ in " + std::to_string(differences) + " field(s)");
    }
    std::printf("ledgers match: %zu experiment(s), %zu audit(s)\n",
                a.experiments.size(), a.audits.size());
    return Status::Ok();
  }

  std::string path = args.GetString("file", "");
  if (path.empty()) {
    return Status::InvalidArgument("pass --file RUN.ledger.jsonl");
  }

  if (action == "check") {
    DPAUDIT_ASSIGN_OR_RETURN(double tolerance,
                             args.GetDouble("tolerance", 1e-9));
    DPAUDIT_RETURN_IF_ERROR(args.CheckAllConsumed());
    return CheckLedgerFile(path, tolerance, std::cout);
  }

  DPAUDIT_ASSIGN_OR_RETURN(obs::LedgerFile ledger,
                           obs::LoadLedgerFile(path));

  if (action == "list") {
    DPAUDIT_RETURN_IF_ERROR(args.CheckAllConsumed());
    std::printf("ledger %s (schema v%llu, binary %s, commit %s, simd %s)\n",
                path.c_str(),
                static_cast<unsigned long long>(
                    ledger.manifest.schema_version),
                ledger.manifest.binary.c_str(),
                ledger.manifest.git_commit.c_str(),
                ledger.manifest.simd.c_str());
    for (const obs::LedgerExperiment& experiment : ledger.experiments) {
      std::printf("  experiment seq=%-4zu %s digest=%s reps=%-4zu "
                  "steps=%-4zu sigma=%g %s/%s\n",
                  experiment.seq, experiment.fingerprint.c_str(),
                  experiment.digest.c_str(), experiment.trials.size(),
                  experiment.steps_per_trial, experiment.noise_multiplier,
                  experiment.sensitivity_mode.c_str(),
                  experiment.neighbor_mode.c_str());
    }
    for (const obs::LedgerAudit& audit : ledger.audits) {
      std::printf("  audit      seq=%-4zu digest=%s delta=%g "
                  "eps_sens=%.6f eps_belief=%.6f eps_adv=%.6f\n",
                  audit.seq, audit.digest.c_str(), audit.delta,
                  audit.epsilon_from_sensitivities,
                  audit.epsilon_from_belief, audit.epsilon_from_advantage);
    }
    std::printf("%zu experiment(s), %zu audit(s)\n",
                ledger.experiments.size(), ledger.audits.size());
    return Status::Ok();
  }

  if (action == "show") {
    DPAUDIT_ASSIGN_OR_RETURN(int64_t seq, args.GetInt("seq", 0));
    DPAUDIT_RETURN_IF_ERROR(args.CheckAllConsumed());
    const obs::LedgerExperiment* experiment = nullptr;
    for (const obs::LedgerExperiment& candidate : ledger.experiments) {
      if (candidate.seq == static_cast<size_t>(seq)) {
        experiment = &candidate;
        break;
      }
    }
    if (experiment == nullptr) {
      return Status::NotFound("no experiment with seq " +
                              std::to_string(seq));
    }
    std::printf("experiment seq=%zu\n", experiment->seq);
    std::printf("  fingerprint       = %s\n",
                experiment->fingerprint.c_str());
    std::printf("  digest            = %s\n", experiment->digest.c_str());
    std::printf("  seed              = %llu\n",
                static_cast<unsigned long long>(experiment->seed));
    std::printf("  repetitions       = %zu (steps/trial %zu)\n",
                experiment->trials.size(), experiment->steps_per_trial);
    std::printf("  dpsgd             = epochs %zu, lr %g, clip %g, "
                "sigma %g, q %g, %s/%s\n",
                experiment->epochs, experiment->learning_rate,
                experiment->clip_norm, experiment->noise_multiplier,
                experiment->sampling_rate,
                experiment->sensitivity_mode.c_str(),
                experiment->neighbor_mode.c_str());
    std::printf("  datasets          = D %s, D' %s, test %s\n",
                experiment->dataset_digest_d.c_str(),
                experiment->dataset_digest_dprime.c_str(),
                experiment->dataset_digest_test.empty()
                    ? "(none)"
                    : experiment->dataset_digest_test.c_str());
    for (const obs::LedgerTrial& trial : experiment->trials) {
      std::printf("  trial rep=%-4zu trained_on_d=%d says_d=%d "
                  "final_belief=%.6f max_belief=%.6f\n",
                  trial.rep, trial.trained_on_d ? 1 : 0,
                  trial.adversary_says_d ? 1 : 0, trial.final_belief_d,
                  trial.max_belief_d);
    }
    for (const obs::LedgerAudit& audit : ledger.audits) {
      if (audit.digest != experiment->digest) continue;
      std::printf("  audit seq=%zu: delta=%g eps_sens=%.6f "
                  "eps_belief=%.6f eps_adv=%.6f advantage=%.4f "
                  "max_belief=%.6f\n",
                  audit.seq, audit.delta,
                  audit.epsilon_from_sensitivities,
                  audit.epsilon_from_belief, audit.epsilon_from_advantage,
                  audit.advantage, audit.max_belief);
    }
    return Status::Ok();
  }

  return Status::InvalidArgument("unknown ledger action: " + action);
}

Status RunSweepStatus(const std::string& path) {
  DPAUDIT_ASSIGN_OR_RETURN(LoadedSweepJournal journal,
                           LoadSweepJournal(path));
  std::printf("sweep journal %s (schema v%u)\n", path.c_str(),
              journal.has_manifest ? journal.manifest.schema_version
                                   : kSweepJournalSchemaVersion);
  if (journal.has_manifest) {
    std::string command = journal.manifest.binary;
    for (const std::string& arg : journal.manifest.args) {
      command += " " + arg;
    }
    std::printf("  command  = %s\n", command.c_str());
    std::printf("  cwd      = %s\n", journal.manifest.cwd.c_str());
  } else {
    std::printf("  command  = (no manifest row — not resumable)\n");
  }
  std::printf("  trials   = %zu across %zu cell(s)\n", journal.trial_rows,
              journal.trials.size());
  for (const auto& cell : journal.trials) {
    uint64_t max_rep = 0;
    for (const auto& rep : cell.second) max_rep = rep.first;
    std::printf("  cell %s: %zu rep(s), highest rep %llu\n",
                cell.first.c_str(), cell.second.size(),
                static_cast<unsigned long long>(max_rep));
  }
  if (journal.dropped_rows > 0) {
    std::printf("  dropped  = %zu corrupt row(s) (will re-run)\n",
                journal.dropped_rows);
  }
  if (journal.torn_tail) {
    std::printf("  torn tail after byte %lld (crash signature; truncated on "
                "resume)\n",
                journal.valid_bytes);
  }
  return Status::Ok();
}

Status RunSweepResume(const std::string& path) {
  DPAUDIT_ASSIGN_OR_RETURN(LoadedSweepJournal journal,
                           LoadSweepJournal(path));
  if (!journal.has_manifest) {
    return Status::FailedPrecondition(
        "journal " + path +
        " has no manifest row; re-launch the original command with "
        "--checkpoint=" + path + " instead");
  }
  std::error_code ec;
  const std::string absolute =
      std::filesystem::absolute(path, ec).string();
  if (ec) return Status::Internal("cannot resolve " + path);
  // The resumed process re-derives its checkpoint from this variable (env
  // beats the default; an explicit --checkpoint flag in the recorded args
  // still wins, and points at the same file).
  ::setenv("DPAUDIT_SWEEP_CHECKPOINT", absolute.c_str(), /*overwrite=*/1);
  if (!journal.manifest.cwd.empty()) {
    std::filesystem::current_path(journal.manifest.cwd, ec);
    if (ec) {
      return Status::FailedPrecondition(
          "cannot chdir to recorded cwd " + journal.manifest.cwd +
          "; re-run from there manually");
    }
  }
  std::vector<std::string> command;
  command.push_back(journal.manifest.binary);
  for (const std::string& arg : journal.manifest.args) {
    command.push_back(arg);
  }
  std::string display;
  for (const std::string& part : command) {
    if (!display.empty()) display += " ";
    display += part;
  }
  std::fprintf(stderr, "resuming: %s (journal %s, %zu trial(s) recorded)\n",
               display.c_str(), absolute.c_str(), journal.trial_rows);
  std::vector<char*> exec_argv;
  exec_argv.reserve(command.size() + 1);
  for (std::string& part : command) {
    exec_argv.push_back(part.data());
  }
  exec_argv.push_back(nullptr);
  ::execvp(exec_argv[0], exec_argv.data());
  return Status::NotFound("cannot execute " + command[0] +
                          " (recorded in the journal manifest); re-run it "
                          "manually with DPAUDIT_SWEEP_CHECKPOINT=" +
                          absolute);
}

Status RunSweepCmd(const ArgParser& args) {
  if (args.positional().size() != 2) {
    return Status::InvalidArgument("sweep needs an action: status|resume");
  }
  const std::string& action = args.positional()[1];
  std::string journal = args.GetString("journal", "");
  DPAUDIT_RETURN_IF_ERROR(args.CheckAllConsumed());
  if (journal.empty()) {
    return Status::InvalidArgument("pass --journal RUN.sweep.jsonl");
  }
  if (action == "status") return RunSweepStatus(journal);
  if (action == "resume") return RunSweepResume(journal);
  return Status::InvalidArgument("unknown sweep action: " + action);
}

int Main(int argc, char** argv) {
  StatusOr<RuntimeOptions> runtime =
      RuntimeOptions::FromEnvAndArgs(&argc, argv);
  if (!runtime.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 runtime.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (runtime->help) {
    PrintUsage();
    PrintRuntimeOptionsHelp(argv[0], std::cout);
    return 0;
  }
  InitRuntimeOptions(*runtime);
  Status applied = ApplyRuntimeOptions(*runtime);
  if (!applied.ok()) {
    std::fprintf(stderr, "error: %s\n", applied.ToString().c_str());
    return 2;
  }
  StatusOr<ArgParser> args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (args->positional().empty()) {
    PrintUsage();
    return 2;
  }
  const std::string& command = args->positional()[0];
  if (command != "trace" && command != "ledger" && command != "sweep" &&
      args->positional().size() != 1) {
    PrintUsage();
    return 2;
  }
  Status status = Status::InvalidArgument("unknown command: " + command);
  if (command == "scores") status = RunScores(*args);
  if (command == "plan") status = RunPlan(*args);
  if (command == "experiment") status = RunExperiment(*args);
  if (command == "trace") status = RunTrace(*args);
  if (command == "ledger") status = RunLedger(*args);
  if (command == "sweep") status = RunSweepCmd(*args);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    if (status.code() == StatusCode::kInvalidArgument) PrintUsage();
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dpaudit

int main(int argc, char** argv) { return dpaudit::Main(argc, argv); }
