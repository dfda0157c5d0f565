// RuntimeOptions: the single front door for every process-level knob.
//
// Historically each subsystem read its own DPAUDIT_* environment variable ad
// hoc (thread count in util/thread_pool, lanes in util/env, trace cache in
// core/trace, telemetry in obs/telemetry, ...). This header consolidates
// them into one struct with one documented precedence rule:
//
//   CLI flag  >  environment variable  >  built-in default
//
// Binaries call RuntimeOptions::FromEnvAndArgs() first thing in main — it
// starts from the environment, overlays any recognized --flags (stripping
// them from argv), and validates with actionable errors — then
// InitRuntimeOptions() to publish the result process-wide and
// ApplyRuntimeOptions() to push the values down into the layers that cannot
// see core (thread-pool override, batch-lane override, log level, fault
// plan). Libraries read CurrentRuntimeOptions(), which returns the published
// options or, when no binary published any, a fresh read of the environment
// — so tests that setenv/unsetenv between calls keep working unchanged.
//
// The knob table (RuntimeKnobTable) is the single source of truth for flag
// and variable names, defaults, and help text; --help output and the
// docs/OPERATIONS.md migration map are generated from it. Raw getenv calls
// outside this module's typed accessors are banned by the
// dpaudit-raw-getenv lint rule.

#ifndef DPAUDIT_CORE_RUNTIME_OPTIONS_H_
#define DPAUDIT_CORE_RUNTIME_OPTIONS_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.h"

namespace dpaudit {

/// One row of the knob table: the CLI flag, the environment variable it
/// overrides, the default, and the help text. --help output is generated
/// from this table, so flags, env vars, and docs cannot drift apart.
struct RuntimeKnob {
  const char* flag;           // "--threads" (value via --threads=N)
  const char* env;            // "DPAUDIT_THREADS", "" when flag-only
  const char* default_value;  // rendered in --help
  const char* help;
};

const std::vector<RuntimeKnob>& RuntimeKnobTable();

/// threads, trace_cache, trial_retries and checkpoint are the sweep policy:
/// SweepOptionsFromRuntime (core/sweep_scheduler.h) is the one place they
/// become SweepOptions, for every binary's sweeps and RunDiExperiment alike.
struct RuntimeOptions {
  /// Worker threads for parallel regions. 0 = hardware-derived default.
  /// Results are bit-identical for any value (determinism contract).
  size_t threads = 0;

  /// Gradient-engine lane width, >= 1. -1 = default (kDefaultBatchLanes);
  /// 1 = the width-1 reference. Bit-identical for any value.
  int64_t batch_lanes = -1;

  /// Step-trace cache directory; empty disables the cache. Read through
  /// TraceStore::FromEnv (core/trace.h).
  std::string trace_cache;

  /// Telemetry exports (profile/metrics/trace/ledger) under this directory;
  /// disabled when empty.
  bool telemetry_enabled = false;
  std::string telemetry_dir;

  /// Minimum log level: "INFO" | "WARNING" | "ERROR" (or 0|1|2). Empty keeps
  /// the logging default.
  std::string log_level;

  /// How many times a failed sweep trial is retried before its cell degrades
  /// to a partial-repetition estimate.
  size_t trial_retries = 2;

  /// Sweep checkpoint journal path; empty (the default, telemetry on or
  /// off) disables checkpointing.
  std::string checkpoint;

  /// Deterministic fault-injection spec (util/fault_injection.h); empty
  /// disables injection.
  std::string fault_spec;

  /// Set by FromEnvAndArgs when --help was passed; the caller prints
  /// PrintRuntimeOptionsHelp and exits.
  bool help = false;

  /// Environment layer only: every knob from its DPAUDIT_* variable, or its
  /// built-in default. Reads the environment fresh on every call.
  static RuntimeOptions FromEnv();

  /// FromEnv overlaid with recognized --flags, which are stripped from argv
  /// (unrecognized arguments pass through untouched). Returns an actionable
  /// InvalidArgument for malformed values; the surviving options are already
  /// Validate()d.
  static StatusOr<RuntimeOptions> FromEnvAndArgs(int* argc, char** argv);

  /// Range/spelling checks with actionable messages (what was wrong, what
  /// the accepted values are).
  Status Validate() const;
};

/// Publishes `options` as the process-wide configuration returned by
/// CurrentRuntimeOptions(). Call once from main, before spinning up work.
void InitRuntimeOptions(const RuntimeOptions& options);

/// The published options, or RuntimeOptions::FromEnv() when nothing was
/// published (library/test contexts).
RuntimeOptions CurrentRuntimeOptions();

/// Pushes the options into the layers below core that cannot read this
/// header: thread-count and batch-lane overrides (util), the log level
/// (util/logging), and the fault-injection plan (util/fault_injection).
/// Telemetry is NOT started here — callers own that lifecycle (it needs the
/// binary name); see bench/bench_common.h.
Status ApplyRuntimeOptions(const RuntimeOptions& options);

/// --help text generated from RuntimeKnobTable().
void PrintRuntimeOptionsHelp(const std::string& program, std::ostream& os);

}  // namespace dpaudit

#endif  // DPAUDIT_CORE_RUNTIME_OPTIONS_H_
