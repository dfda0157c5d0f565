#include "core/runtime_options.h"

#include <cstring>
#include <mutex>
#include <ostream>
#include <string>

#include "util/env.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace {

struct PublishedOptions {
  std::mutex mu;
  bool set = false;
  RuntimeOptions options;
};

PublishedOptions& Published() {
  static PublishedOptions published;
  return published;
}

bool ParseLogLevel(const std::string& value, LogLevel* out) {
  if (value == "INFO" || value == "0") {
    *out = LogLevel::kInfo;
    return true;
  }
  if (value == "WARNING" || value == "1") {
    *out = LogLevel::kWarning;
    return true;
  }
  if (value == "ERROR" || value == "2") {
    *out = LogLevel::kError;
    return true;
  }
  return false;
}

/// strtoll with full-string validation; false on junk so flag errors are
/// reported instead of silently ignored (unlike the forgiving env layer).
bool ParseInt64(const std::string& value, int64_t* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') return false;
  *out = parsed;
  return true;
}

}  // namespace

const std::vector<RuntimeKnob>& RuntimeKnobTable() {
  static const std::vector<RuntimeKnob> kKnobs = {
      {"--threads", "DPAUDIT_THREADS", "auto",
       "worker threads for parallel regions (results are bit-identical for "
       "any value); auto = hardware concurrency clamped to [1,16]"},
      {"--lanes", "DPAUDIT_BATCH_LANES", "8",
       "gradient-engine batch lanes, 1 = the width-1 reference "
       "(bit-identical for any value in [1, 32])"},
      {"--trace-cache", "DPAUDIT_TRACE_CACHE", "(off)",
       "step-trace cache directory; repeated experiments replay recordings "
       "bit-identically instead of retraining"},
      {"--telemetry", "DPAUDIT_TELEMETRY", "(off)",
       "telemetry export directory (profile.txt, metrics.prom, "
       "trace.json, ledger.jsonl); stdout stays byte-identical"},
      {"--progress", "DPAUDIT_PROGRESS", "0",
       "sweep heartbeat interval in seconds through stderr logging; 0 = off"},
      {"--log-level", "DPAUDIT_LOG_LEVEL", "INFO",
       "minimum log level: INFO | WARNING | ERROR (or 0|1|2)"},
      {"--retries", "DPAUDIT_TRIAL_RETRIES", "2",
       "retry budget per sweep trial before the cell degrades to a "
       "partial-repetition estimate (max 100)"},
      {"--retry-backoff-ms", "DPAUDIT_RETRY_BACKOFF_MS", "10",
       "base backoff between trial retries, milliseconds, deterministically "
       "jittered per attempt"},
      {"--checkpoint", "DPAUDIT_SWEEP_CHECKPOINT", "(off)",
       "sweep checkpoint journal path; a re-launched sweep skips trials the "
       "journal already holds (see `dpaudit_cli sweep status|resume`)"},
      {"--fault-inject", "DPAUDIT_FAULT_INJECT", "(off)",
       "deterministic fault-injection spec, e.g. "
       "\"trial=0:1:2;journal-write=3;abort-after-append=5\" "
       "(util/fault_injection.h)"},
      {"--verbose", "DPAUDIT_VERBOSE", "off",
       "per-cell sweep accounting (replayed/resumed/trained/failed/retried) "
       "through stderr logging"},
  };
  return kKnobs;
}

RuntimeOptions RuntimeOptions::FromEnv() {
  RuntimeOptions options;
  const int64_t threads = EnvInt64("DPAUDIT_THREADS", 0);
  options.threads = threads > 0 ? static_cast<size_t>(threads) : 0;
  options.batch_lanes = EnvInt64("DPAUDIT_BATCH_LANES", -1);
  options.trace_cache = EnvString("DPAUDIT_TRACE_CACHE", "");
  options.telemetry_dir = EnvString("DPAUDIT_TELEMETRY", "");
  options.telemetry_enabled = !options.telemetry_dir.empty();
  options.progress_seconds = EnvInt64("DPAUDIT_PROGRESS", 0);
  options.log_level = EnvString("DPAUDIT_LOG_LEVEL", "");
  const int64_t retries = EnvInt64("DPAUDIT_TRIAL_RETRIES", 2);
  options.trial_retries = retries > 0 ? static_cast<size_t>(retries) : 0;
  const int64_t backoff = EnvInt64("DPAUDIT_RETRY_BACKOFF_MS", 10);
  options.retry_backoff_ms = backoff > 0 ? static_cast<uint64_t>(backoff) : 0;
  options.checkpoint = EnvString("DPAUDIT_SWEEP_CHECKPOINT", "");
  options.fault_spec = EnvString("DPAUDIT_FAULT_INJECT", "");
  options.verbose = EnvInt64("DPAUDIT_VERBOSE", 0) != 0;
  return options;
}

StatusOr<RuntimeOptions> RuntimeOptions::FromEnvAndArgs(int* argc,
                                                        char** argv) {
  RuntimeOptions options = FromEnv();
  int out = 1;
  Status error = Status::Ok();
  auto fail = [&error](const std::string& message) {
    if (error.ok()) error = Status::InvalidArgument(message);
  };
  auto takes_value = [](const std::string& name) {
    for (const RuntimeKnob& knob : RuntimeKnobTable()) {
      if (name == knob.flag) {
        // --verbose is a bare switch; everything else in the table wants a
        // value.
        return name != std::string("--verbose");
      }
    }
    return false;
  };
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    std::string name = arg;
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    } else if (takes_value(name) && i + 1 < *argc) {
      // "--threads 4" space form, accepted like the tools' ArgParser.
      value = argv[++i];
      has_value = true;
    }
    bool consumed = true;
    if (name == "--help" || name == "-h") {
      options.help = true;
    } else if (name == "--verbose") {
      options.verbose = !has_value || value != "0";
    } else if (name == "--threads") {
      int64_t threads = 0;
      if (!has_value || !ParseInt64(value, &threads) || threads < 1) {
        fail("--threads needs a positive integer, e.g. --threads=4 (got \"" +
             arg + "\")");
      } else {
        options.threads = static_cast<size_t>(threads);
      }
    } else if (name == "--lanes") {
      int64_t lanes = 0;
      if (!has_value || !ParseInt64(value, &lanes) || lanes < 1) {
        fail("--lanes needs a positive integer (1 = the width-1 reference), "
             "e.g. --lanes=8 (got \"" + arg + "\")");
      } else {
        options.batch_lanes = lanes;
      }
    } else if (name == "--trace-cache") {
      if (!has_value || value.empty()) {
        fail("--trace-cache needs a directory, e.g. "
             "--trace-cache=/tmp/dptraces");
      } else {
        options.trace_cache = value;
      }
    } else if (name == "--telemetry") {
      if (!has_value || value.empty()) {
        fail("--telemetry needs a directory, e.g. --telemetry=/tmp/dpaudit");
      } else {
        options.telemetry_enabled = true;
        options.telemetry_dir = value;
      }
    } else if (name == "--progress") {
      int64_t seconds = 0;
      if (!has_value || !ParseInt64(value, &seconds) || seconds < 0) {
        fail("--progress needs a non-negative interval in seconds, e.g. "
             "--progress=30 (got \"" + arg + "\")");
      } else {
        options.progress_seconds = seconds;
      }
    } else if (name == "--log-level") {
      LogLevel level;
      if (!has_value || !ParseLogLevel(value, &level)) {
        fail("--log-level must be INFO, WARNING, or ERROR (got \"" + value +
             "\")");
      } else {
        options.log_level = value;
      }
    } else if (name == "--retries") {
      int64_t retries = 0;
      if (!has_value || !ParseInt64(value, &retries) || retries < 0) {
        fail("--retries needs a non-negative integer, e.g. --retries=2 "
             "(got \"" + arg + "\")");
      } else {
        options.trial_retries = static_cast<size_t>(retries);
      }
    } else if (name == "--retry-backoff-ms") {
      int64_t backoff = 0;
      if (!has_value || !ParseInt64(value, &backoff) || backoff < 0) {
        fail("--retry-backoff-ms needs a non-negative integer (got \"" + arg +
             "\")");
      } else {
        options.retry_backoff_ms = static_cast<uint64_t>(backoff);
      }
    } else if (name == "--checkpoint") {
      if (!has_value || value.empty()) {
        fail("--checkpoint needs a journal path, e.g. "
             "--checkpoint=/tmp/fig08.sweep.jsonl");
      } else {
        options.checkpoint = value;
      }
    } else if (name == "--fault-inject") {
      options.fault_spec = value;
    } else {
      consumed = false;
    }
    if (!consumed) argv[out++] = argv[i];
  }
  *argc = out;
  if (!error.ok()) return error;
  Status valid = options.Validate();
  if (!valid.ok()) return valid;
  return options;
}

Status RuntimeOptions::Validate() const {
  if (threads > 256) {
    return Status::InvalidArgument(
        "threads = " + std::to_string(threads) +
        " exceeds the 256-worker cap; pick a value in [1, 256] or 0 for "
        "the hardware default");
  }
  if (batch_lanes > static_cast<int64_t>(kMaxBatchLanes)) {
    return Status::InvalidArgument(
        "batch lanes = " + std::to_string(batch_lanes) +
        " exceeds kMaxBatchLanes = " + std::to_string(kMaxBatchLanes) +
        " (the fixed per-lane accumulator width); pick a value in [1, " +
        std::to_string(kMaxBatchLanes) + "]");
  }
  if (batch_lanes == 0 || batch_lanes < -1) {
    return Status::InvalidArgument(
        "batch lanes must be >= 1 (1 runs the width-1 reference); got " +
        std::to_string(batch_lanes));
  }
  if (!log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level, &level)) {
      return Status::InvalidArgument(
          "log level \"" + log_level +
          "\" is not recognized; use INFO, WARNING, or ERROR");
    }
  }
  if (trial_retries > 100) {
    return Status::InvalidArgument(
        "trial retries = " + std::to_string(trial_retries) +
        " is unreasonably large; the budget bounds wasted work per failing "
        "trial — pick a value in [0, 100]");
  }
  if (progress_seconds < 0) {
    return Status::InvalidArgument("progress interval must be >= 0 seconds");
  }
  if (!fault_spec.empty()) {
    Status parsed = fault::ValidateFaultSpec(fault_spec);
    if (!parsed.ok()) return parsed;
  }
  return Status::Ok();
}

void InitRuntimeOptions(const RuntimeOptions& options) {
  PublishedOptions& published = Published();
  std::lock_guard<std::mutex> lock(published.mu);
  published.set = true;
  published.options = options;
}

RuntimeOptions CurrentRuntimeOptions() {
  PublishedOptions& published = Published();
  {
    std::lock_guard<std::mutex> lock(published.mu);
    if (published.set) return published.options;
  }
  return RuntimeOptions::FromEnv();
}

Status ApplyRuntimeOptions(const RuntimeOptions& options) {
  Status valid = options.Validate();
  if (!valid.ok()) return valid;
  SetDefaultThreadCountOverride(options.threads);
  if (options.batch_lanes >= 0) {
    SetBatchLanesOverride(options.batch_lanes);
  }
  if (!options.log_level.empty()) {
    LogLevel level = LogLevel::kInfo;
    ParseLogLevel(options.log_level, &level);  // Validate() vetted it
    SetMinLogLevel(level);
  }
  if (!options.fault_spec.empty()) {
    fault::SetFaultSpec(options.fault_spec);
  }
  return Status::Ok();
}

void PrintRuntimeOptionsHelp(const std::string& program, std::ostream& os) {
  os << "usage: " << program << " [runtime flags]\n\n"
     << "Runtime flags (precedence: CLI flag > environment > default):\n";
  for (const RuntimeKnob& knob : RuntimeKnobTable()) {
    os << "  " << knob.flag << "=<value>";
    for (size_t pad = std::strlen(knob.flag) + 9; pad < 28; ++pad) {
      os << ' ';
    }
    os << knob.help << "\n";
    os << "      env " << knob.env << ", default " << knob.default_value
       << "\n";
  }
  os << "\nEvery flag also accepts its environment variable; the flag wins "
        "when both are set.\n";
}

}  // namespace dpaudit
