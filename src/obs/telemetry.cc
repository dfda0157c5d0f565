#include "obs/telemetry.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/audit_ledger.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace obs {

namespace internal {
std::atomic<bool> g_telemetry_enabled{false};
}  // namespace internal

namespace {

struct TelemetryState {
  std::mutex mu;
  std::string binary_name = "dpaudit";
  std::string directory;
  uint64_t start_ns = 0;
  bool flushed = false;
};

TelemetryState& State() {
  static TelemetryState* state = new TelemetryState();
  return *state;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return base.empty() ? std::string("dpaudit") : base;
}

// ---------------------------------------------------------------------------
// Thread-pool hooks: span-context propagation.

const void* PoolCaptureContext() {
  return static_cast<const void*>(CurrentSpanContext());
}

const void* PoolEnterContext(const void* token) {
  return static_cast<const void*>(ExchangeSpanContext(
      static_cast<SpanContext>(const_cast<void*>(token))));
}

void PoolExitContext(const void* previous) {
  ExchangeSpanContext(
      static_cast<SpanContext>(const_cast<void*>(previous)));
}

constexpr ThreadPoolTelemetryHooks kPoolHooks = {
    &PoolCaptureContext,
    &PoolEnterContext,
    &PoolExitContext,
};

uint64_t ThreadsForBuildInfo() { return DefaultThreadCount(); }

}  // namespace

const char* ActiveSimdDispatch() { return SimdTierName(ClipStageTier()); }

const char* BuildGitCommit() {
#if defined(DPAUDIT_GIT_COMMIT)
  return DPAUDIT_GIT_COMMIT;
#else
  return "unknown";
#endif
}

void InitTelemetry(const std::string& argv0_or_name,
                   const TelemetryOptions& options) {
  TelemetryState& state = State();
  const std::string binary = Basename(argv0_or_name);
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.binary_name = binary;
    state.directory = options.directory;
    state.start_ns = MonotonicNowNs();
  }
  if (!options.enabled) return;

  SetThreadPoolTelemetryHooks(&kPoolHooks);
  LedgerManifest manifest;
  manifest.binary = binary;
  manifest.simd = ActiveSimdDispatch();
  manifest.threads = ThreadsForBuildInfo();
  manifest.batch_lanes = BatchLanesFromEnv();
  manifest.git_commit = BuildGitCommit();
  InitAuditLedger(manifest,
                  options.directory.empty() ? "." : options.directory);
  internal::g_telemetry_enabled.store(true, std::memory_order_relaxed);
  std::atexit(&FlushTelemetry);
  DPAUDIT_LOG(INFO) << "telemetry on: binary=" << binary
                    << " simd=" << ActiveSimdDispatch()
                    << " threads=" << ThreadsForBuildInfo()
                    << " batch_lanes=" << BatchLanesFromEnv() << " dir="
                    << (options.directory.empty() ? "." : options.directory);
}

void EnableTelemetryForTest(bool enabled) {
  internal::g_telemetry_enabled.store(enabled, std::memory_order_relaxed);
  SetThreadPoolTelemetryHooks(enabled ? &kPoolHooks : nullptr);
}

// ---------------------------------------------------------------------------
// Exporters.

void WriteProfileReport(std::ostream& os, uint64_t wall_ns) {
  TelemetryState& state = State();
  std::string binary;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    binary = state.binary_name;
  }
  const std::vector<SpanRegistry::Stat> stats =
      SpanRegistry::Global().Collect();
  const uint64_t covered_ns = SpanRegistry::Global().RootTotalNs();

  os << "== dpaudit profile: " << binary << " ==\n";
  os << "simd=" << ActiveSimdDispatch() << " threads=" << ThreadsForBuildInfo()
     << "\n";
  if (wall_ns > 0) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "wall %.3f s, span coverage %.1f%% of wall\n",
                  static_cast<double>(wall_ns) * 1e-9,
                  100.0 * static_cast<double>(covered_ns) /
                      static_cast<double>(wall_ns));
    os << line;
  }
  if (stats.empty()) {
    os << "(no spans recorded)\n";
    return;
  }

  size_t name_width = 4;  // "span"
  for (const SpanRegistry::Stat& stat : stats) {
    const size_t leaf = stat.path.find_last_of('/');
    const size_t len =
        2 * stat.depth +
        (leaf == std::string::npos ? stat.path.size()
                                   : stat.path.size() - leaf - 1);
    name_width = std::max(name_width, len);
  }

  char header[192];
  std::snprintf(header, sizeof(header), "%-*s %10s %12s %12s %12s\n",
                static_cast<int>(name_width), "span", "count", "total ms",
                "self ms", "avg us");
  os << header;
  for (const SpanRegistry::Stat& stat : stats) {
    const size_t leaf_pos = stat.path.find_last_of('/');
    const std::string leaf =
        leaf_pos == std::string::npos ? stat.path : stat.path.substr(leaf_pos + 1);
    const std::string indented = std::string(2 * stat.depth, ' ') + leaf;
    const double total_ms = static_cast<double>(stat.total_ns) * 1e-6;
    const double self_ms = static_cast<double>(stat.self_ns) * 1e-6;
    const double avg_us =
        stat.count == 0
            ? 0.0
            : static_cast<double>(stat.total_ns) * 1e-3 /
                  static_cast<double>(stat.count);
    char row[256];
    std::snprintf(row, sizeof(row), "%-*s %10llu %12.3f %12.3f %12.3f\n",
                  static_cast<int>(name_width), indented.c_str(),
                  static_cast<unsigned long long>(stat.count), total_ms,
                  self_ms, avg_us);
    os << row;
  }
}

void WritePrometheus(std::ostream& os) {
  for (const MetricSnapshot& snap : MetricsRegistry::Global().Snapshot()) {
    os << "# TYPE " << snap.name << " counter\n"
       << snap.name << " " << snap.value << "\n";
  }

  TelemetryState& state = State();
  std::string binary;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    binary = state.binary_name;
  }
  os << "# TYPE dpaudit_build_info gauge\n"
     << "dpaudit_build_info{binary=\"" << binary << "\",simd=\""
     << ActiveSimdDispatch() << "\",threads=\"" << ThreadsForBuildInfo()
     << "\",batch_lanes=\"" << BatchLanesFromEnv() << "\",commit=\""
     << BuildGitCommit() << "\"} 1\n";

  const std::vector<SpanRegistry::Stat> stats =
      SpanRegistry::Global().Collect();
  if (!stats.empty()) {
    os << "# TYPE dpaudit_span_seconds_total counter\n";
    for (const SpanRegistry::Stat& stat : stats) {
      os << "dpaudit_span_seconds_total{path=\"" << stat.path << "\"} "
         << FormatDouble(static_cast<double>(stat.total_ns) * 1e-9) << "\n";
    }
    os << "# TYPE dpaudit_span_count counter\n";
    for (const SpanRegistry::Stat& stat : stats) {
      os << "dpaudit_span_count{path=\"" << stat.path << "\"} " << stat.count
         << "\n";
    }
  }
}

void WriteTraceJson(std::ostream& os) {
  TelemetryState& state = State();
  std::string binary;
  uint64_t start_ns;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    binary = state.binary_name;
    start_ns = state.start_ns;
  }
  const std::vector<SpanEvent> events = CollectSpanEvents();

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Metadata event naming the process; also guarantees a non-empty array.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
     << "\"args\":{\"name\":\"" << JsonEscape(binary) << "\"}}";
  for (const SpanEvent& event : events) {
    const uint64_t rel_ns =
        event.start_ns >= start_ns ? event.start_ns - start_ns : 0;
    os << ",\n{\"name\":\"" << JsonEscape(event.name)
       << "\",\"cat\":\"dpaudit\",\"ph\":\"X\",\"ts\":"
       << FormatDouble(static_cast<double>(rel_ns) * 1e-3)
       << ",\"dur\":" << FormatDouble(static_cast<double>(event.dur_ns) * 1e-3)
       << ",\"pid\":1,\"tid\":" << event.tid << "}";
  }
  os << "]}\n";
}

void FlushTelemetry() {
  if (!TelemetryEnabled()) return;
  TelemetryState& state = State();
  std::string binary;
  std::string directory;
  uint64_t start_ns;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.flushed) return;
    state.flushed = true;
    binary = state.binary_name;
    directory = state.directory.empty() ? "." : state.directory;
    start_ns = state.start_ns;
  }
  const uint64_t wall_ns = start_ns == 0 ? 0 : MonotonicNowNs() - start_ns;

  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    DPAUDIT_LOG(ERROR) << "telemetry: cannot create directory " << directory
                       << ": " << ec.message();
    WriteProfileReport(RawLogStream(), wall_ns);
    return;
  }

  const std::string prefix = directory + "/" + binary;
  {
    std::ofstream profile(prefix + ".profile.txt");
    WriteProfileReport(profile, wall_ns);
  }
  {
    std::ofstream prom(prefix + ".metrics.prom");
    WritePrometheus(prom);
  }
  {
    std::ofstream trace(prefix + ".trace.json");
    WriteTraceJson(trace);
  }
  FlushAuditLedger();
  // The profile also goes to stderr so interactive runs see it without
  // hunting for the file. Never stdout: experiment output must stay
  // byte-identical with telemetry off.
  WriteProfileReport(RawLogStream(), wall_ns);
  DPAUDIT_LOG(INFO) << "telemetry exports: " << prefix
                    << ".{profile.txt,metrics.prom,trace.json}";
}

}  // namespace obs
}  // namespace dpaudit
