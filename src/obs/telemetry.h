// Telemetry lifecycle: the process-wide enabled flag, run configuration, and
// the end-of-run exporters.
//
// Telemetry is opt-in per process (the --telemetry=<dir> flag or the
// DPAUDIT_TELEMETRY environment variable). When disabled — the default —
// every instrumentation site (DPAUDIT_SPAN, DPAUDIT_METRIC_COUNT, the
// thread-pool task hooks) costs exactly one relaxed atomic load; nothing is
// allocated, timed, or written. When enabled, InitTelemetry installs the
// thread-pool hooks, and FlushTelemetry (registered via atexit) writes three
// exports under the telemetry directory, one per question:
//
//   <binary>.profile.txt   hierarchical span profile, for people (also
//                          printed to stderr)
//   <binary>.metrics.prom  Prometheus text exposition of the registry and
//                          the span totals and counts, for machines
//   <binary>.trace.json    Chrome Trace Event timeline (chrome://tracing) of
//                          each span path's first kEventsPerSpanNode visits
//
// InitTelemetry also arms the privacy-audit ledger (obs/audit_ledger.h),
// which streams `<binary>.ledger.jsonl` into the same directory as the
// experiment emits trials; FlushTelemetry closes it.
//
// Invariant: telemetry never touches the RNG stream, experiment state, or
// any floating-point accumulation order — experiment outputs are
// byte-identical with telemetry on and off (tests/telemetry_identity_test).

#ifndef DPAUDIT_OBS_TELEMETRY_H_
#define DPAUDIT_OBS_TELEMETRY_H_

#include <atomic>
#include <iosfwd>
#include <string>

namespace dpaudit {
namespace obs {

namespace internal {
extern std::atomic<bool> g_telemetry_enabled;
}  // namespace internal

/// The single branch every instrumentation site is gated on.
inline bool TelemetryEnabled() {
  return internal::g_telemetry_enabled.load(std::memory_order_relaxed);
}

struct TelemetryOptions {
  bool enabled = false;
  /// Directory the end-of-run exports are written to (created on demand).
  std::string directory;
};

/// DPAUDIT_TELEMETRY=<dir> enables telemetry with that export directory.
TelemetryOptions TelemetryOptionsFromEnv();

/// Starts telemetry for this process. `argv0_or_name` is basenamed into the
/// export file prefix and the build_info labels. Always registers the
/// dpaudit_build_info gauge (simd dispatch path, default thread count); when
/// `options.enabled` it additionally flips the enabled flag, installs the
/// thread-pool telemetry hooks, arms the audit ledger and registers
/// FlushTelemetry via atexit. Safe to call once per process.
void InitTelemetry(const std::string& argv0_or_name,
                   const TelemetryOptions& options);

/// Writes the exports (idempotent; a no-op when telemetry is disabled).
void FlushTelemetry();

/// The clip stage's kernel tier on this machine (ClipStageTier in
/// util/simd.h): "scalar", "avx2" (AVX2+FMA) or "avx512".
const char* ActiveSimdDispatch();

/// The git commit the binary was built from (DPAUDIT_GIT_COMMIT, injected by
/// CMake), or "unknown" for out-of-tree builds. Feeds the build_info gauge,
/// the audit-ledger run manifest, and bench provenance.
const char* BuildGitCommit();

/// Exporters over the current registry state. `wall_ns` of 0 means "unknown"
/// (span coverage is then omitted from the profile header).
void WriteProfileReport(std::ostream& os, uint64_t wall_ns);
void WritePrometheus(std::ostream& os);

/// Chrome Trace Event export of the raw span event stream (`ph:"X"` complete
/// events, microsecond timestamps relative to InitTelemetry), loadable in
/// chrome://tracing and Perfetto. Written as `<binary>.trace.json`.
void WriteTraceJson(std::ostream& os);

/// Test/bench hook: flips the enabled flag and installs/removes the
/// thread-pool hooks without touching files, atexit, or the ledger.
void EnableTelemetryForTest(bool enabled);

}  // namespace obs
}  // namespace dpaudit

#endif  // DPAUDIT_OBS_TELEMETRY_H_
