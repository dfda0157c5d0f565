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
#include <sstream>
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
// Thread-pool hooks: span-context propagation + queue/execute distributions.

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

void PoolRecordTaskNs(uint64_t queue_ns, uint64_t execute_ns) {
  static DistributionMetric& queue_us =
      MetricsRegistry::Global().GetDistribution("dpaudit_pool_queue_us", 0.0,
                                               1e5, 200);
  static DistributionMetric& execute_us =
      MetricsRegistry::Global().GetDistribution("dpaudit_pool_execute_us",
                                               0.0, 1e6, 200);
  queue_us.Record(static_cast<double>(queue_ns) * 1e-3);
  execute_us.Record(static_cast<double>(execute_ns) * 1e-3);
}

void PoolRecordQueueDepth(size_t depth) {
  static DistributionMetric& queue_depth =
      MetricsRegistry::Global().GetDistribution("dpaudit_pool_queue_depth",
                                                0.0, 4096.0, 128);
  queue_depth.Record(static_cast<double>(depth));
}

constexpr ThreadPoolTelemetryHooks kPoolHooks = {
    &PoolCaptureContext,
    &PoolEnterContext,
    &PoolExitContext,
    &PoolRecordTaskNs,
    &PoolRecordQueueDepth,
};

// ---------------------------------------------------------------------------
// Formatting helpers (JsonEscape/FormatDouble come from obs/json_util.h).

/// "dpaudit_build_info{binary="x"}" -> "dpaudit_build_info".
std::string BaseMetricName(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

uint64_t ThreadsForBuildInfo() { return DefaultThreadCount(); }

/// Registers (or refreshes) the dpaudit_build_info gauge for `binary_name`.
void RegisterBuildInfo(const std::string& binary_name) {
  std::ostringstream name;
  name << "dpaudit_build_info{binary=\"" << binary_name << "\",simd=\""
       << ActiveSimdDispatch() << "\",threads=\"" << ThreadsForBuildInfo()
       << "\",batch_lanes=\"" << BatchLanesFromEnv() << "\",commit=\""
       << BuildGitCommit() << "\"}";
  MetricsRegistry::Global().GetGauge(name.str()).Set(1.0);
}

}  // namespace

const char* ActiveSimdDispatch() { return SimdTierName(ClipStageTier()); }

const char* BuildGitCommit() {
#if defined(DPAUDIT_GIT_COMMIT)
  return DPAUDIT_GIT_COMMIT;
#else
  return "unknown";
#endif
}

TelemetryOptions TelemetryOptionsFromEnv() {
  TelemetryOptions options;
  const std::string dir = EnvString("DPAUDIT_TELEMETRY", "");
  if (!dir.empty()) {
    options.enabled = true;
    options.directory = dir;
  }
  return options;
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
  RegisterBuildInfo(binary);
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

namespace {

/// Emits one metric family: a `# TYPE` line the first time each base name is
/// seen, then the sample line.
void EmitProm(std::ostream& os, std::string* last_base,
              const std::string& name, const char* type,
              const std::string& value) {
  const std::string base = BaseMetricName(name);
  if (base != *last_base) {
    os << "# TYPE " << base << " " << type << "\n";
    *last_base = base;
  }
  os << name << " " << value << "\n";
}

}  // namespace

void WritePrometheus(std::ostream& os) {
  std::string last_base;
  for (const MetricSnapshot& snap : MetricsRegistry::Global().Snapshot()) {
    switch (snap.kind) {
      case MetricSnapshot::Kind::kCounter:
        EmitProm(os, &last_base, snap.name, "counter",
                 std::to_string(static_cast<uint64_t>(snap.value)));
        break;
      case MetricSnapshot::Kind::kGauge:
        EmitProm(os, &last_base, snap.name, "gauge",
                 FormatDouble(snap.value));
        break;
      case MetricSnapshot::Kind::kDistribution: {
        const std::string base = BaseMetricName(snap.name);
        os << "# TYPE " << base << " summary\n";
        os << base << "{quantile=\"0.5\"} " << FormatDouble(snap.p50) << "\n";
        os << base << "{quantile=\"0.9\"} " << FormatDouble(snap.p90) << "\n";
        os << base << "{quantile=\"0.99\"} " << FormatDouble(snap.p99)
           << "\n";
        os << base << "_sum "
           << FormatDouble(snap.summary.mean() *
                           static_cast<double>(snap.summary.count()))
           << "\n";
        os << base << "_count " << snap.summary.count() << "\n";
        last_base = base;
        break;
      }
    }
  }

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
