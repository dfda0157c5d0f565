// Environment-variable overrides for experiment binaries.
//
// Every bench default is chosen for a fast run; the paper-scale settings are
// reachable through DPAUDIT_REPS, DPAUDIT_TRIALS, DPAUDIT_SEED, etc.

#ifndef DPAUDIT_UTIL_ENV_H_
#define DPAUDIT_UTIL_ENV_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace dpaudit {

/// Reads an integer environment variable, falling back to `fallback` when the
/// variable is unset or unparsable.
inline int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);  // NOLINT(dpaudit-raw-getenv)
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return value;
}

/// Default and maximum lane counts for the gradient engine's batched path
/// (nn/gradient_engine.h). Defined here, next to the env parsing, so obs/
/// can label build_info with the effective lane width without depending on
/// nn/. 8 lanes = one AVX2 float vector; the cap bounds the fixed-size
/// per-lane accumulator arrays in the layer kernels.
inline constexpr size_t kDefaultBatchLanes = 8;
inline constexpr size_t kMaxBatchLanes = 32;

/// Process-wide lane override installed by core/runtime_options when the
/// --lanes flag (or an explicit RuntimeOptions) is applied; -1 means unset
/// and BatchLanesFromEnv falls through to the environment. Lives here —
/// not in nn/ — because obs/telemetry labels build_info with the effective
/// lane width and may not depend on nn/.
inline std::atomic<int64_t>& BatchLanesOverrideStorage() {
  static std::atomic<int64_t> lanes{-1};
  return lanes;
}

/// Installs (value >= 0) or clears (value < 0) the lane override. Takes
/// precedence over DPAUDIT_BATCH_LANES in BatchLanesFromEnv.
inline void SetBatchLanesOverride(int64_t value) {
  BatchLanesOverrideStorage().store(value < 0 ? -1 : value,
                                    std::memory_order_relaxed);
}

/// DPAUDIT_BATCH_LANES: how many examples the gradient engine packs into one
/// forward/backward pass (1 = the width-1 reference). Results are
/// bit-identical for any value; this only trades memory for throughput.
/// Clamped to [1, kMaxBatchLanes]. A SetBatchLanesOverride value (the
/// --lanes flag) takes precedence over the environment.
inline size_t BatchLanesFromEnv() {
  int64_t lanes =
      BatchLanesOverrideStorage().load(std::memory_order_relaxed);
  if (lanes < 0) {
    lanes = EnvInt64("DPAUDIT_BATCH_LANES",
                     static_cast<int64_t>(kDefaultBatchLanes));
  }
  if (lanes < 1) lanes = 1;
  if (lanes > static_cast<int64_t>(kMaxBatchLanes)) {
    lanes = static_cast<int64_t>(kMaxBatchLanes);
  }
  return static_cast<size_t>(lanes);
}

/// Reads a string environment variable with a fallback (used for paths such
/// as DPAUDIT_TRACE_CACHE).
inline std::string EnvString(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);  // NOLINT(dpaudit-raw-getenv)
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::string(raw);
}

/// Reads a double environment variable with a fallback.
inline double EnvDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);  // NOLINT(dpaudit-raw-getenv)
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0') return fallback;
  return value;
}

}  // namespace dpaudit

#endif  // DPAUDIT_UTIL_ENV_H_
