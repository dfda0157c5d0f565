// Scoped phase spans: RAII timers that aggregate into a process-wide
// hierarchical profile of the audit pipeline.
//
//   void RunStep() {
//     DPAUDIT_SPAN("dpsgd.step");   // times the enclosing scope
//     ...
//   }
//
// Every enabled span attaches to the calling thread's current span as a
// child (creating the tree node on first use) and accumulates wall time and
// a hit count into it with relaxed atomics, so the same phase executed by
// many threads aggregates into one node. Nesting is by dynamic scope: a span
// opened while another is active becomes its child, including reentrant
// spans (a phase under itself gets its own child node). Work scheduled onto
// a ThreadPool adopts the scheduling thread's span as parent through the
// telemetry hooks in util/thread_pool.h, so profiles stay hierarchical
// across the experiment's fan-out.
//
// When telemetry is disabled a span is one relaxed atomic load; no clock is
// read and no node is touched.

#ifndef DPAUDIT_OBS_SPAN_H_
#define DPAUDIT_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace dpaudit {
namespace obs {

/// One node of the aggregated profile tree. Nodes are created on first use
/// and never destroyed (except ResetForTest), so pointers are stable.
class SpanNode {
 public:
  SpanNode(std::string name, SpanNode* parent)
      : name_(std::move(name)), parent_(parent) {}

  const std::string& name() const { return name_; }
  SpanNode* parent() const { return parent_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }

  /// Adds one visit; returns the visit count before it.
  uint64_t RecordVisit(uint64_t elapsed_ns) {
    total_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
    return count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Finds or creates the child named `name`. Children are few per node, so
  /// lookup is a linear scan under the node's mutex.
  SpanNode* GetOrCreateChild(const char* name);

  /// Stable snapshot of the child pointers.
  std::vector<SpanNode*> Children() const;

 private:
  friend class SpanRegistry;

  std::string name_;
  SpanNode* parent_;
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<uint64_t> count_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanNode>> children_;
};

/// Opaque handle to a position in the span tree, used to carry the parent
/// span across threads (thread-pool task adoption).
using SpanContext = SpanNode*;

/// The calling thread's current span (nullptr at top level or when telemetry
/// is disabled).
SpanContext CurrentSpanContext();

/// Replaces the calling thread's current span, returning the previous one so
/// the caller can restore it.
SpanContext ExchangeSpanContext(SpanContext context);

/// Raw events kept per span path: the first this many visits of each
/// SpanNode. A sweep repeats the same few paths thousands of times (fig08:
/// 5,760 train steps, 7 spans each), so the timeline needs only the first
/// visits of each to show its shape, while 256 still keeps every
/// repetition-level visit of the paper's sweeps (fig08 has 192). The
/// trace then grows with the number of paths, not with steps; the
/// aggregated profile still counts every visit.
constexpr uint64_t kEventsPerSpanNode = 256;

/// One completed span instance, kept for the Chrome/Perfetto trace export
/// (telemetry.h WriteTraceJson). Unlike the aggregated SpanNode tree, this
/// is the raw event stream: one record per DPAUDIT_SPAN scope exit, up to
/// kEventsPerSpanNode per path. `name` is the static string literal the
/// macro was given, so no copy is made.
struct SpanEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;  // MonotonicNowNs at scope entry
  uint64_t dur_ns = 0;
  uint32_t tid = 0;  // dense per-thread id, assigned on a thread's first span
};

/// Snapshot of all span events recorded so far, grouped by tid ascending and
/// in chronological order within a thread.
std::vector<SpanEvent> CollectSpanEvents();

/// Clears recorded span events. Per-thread buffers persist (pool threads
/// hold pointers into them across tests); only their contents are cleared.
void ResetSpanEventsForTest();

/// Owns the profile tree root.
class SpanRegistry {
 public:
  static SpanRegistry& Global();

  SpanNode& root() { return root_; }

  struct Stat {
    std::string path;  // "sweep_schedule/repetition/train_step"
    size_t depth = 0;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;  // total minus children's totals
  };

  /// Preorder traversal of the tree (root excluded); siblings sorted by self
  /// time, descending.
  std::vector<Stat> Collect() const;

  /// Sum of the root's direct children's totals — the profile's coverage
  /// numerator against process wall clock.
  uint64_t RootTotalNs() const;

  /// Drops the whole tree. Only for tests — invalidates SpanNode pointers;
  /// never call with spans in flight.
  void ResetForTest();

 private:
  SpanRegistry() : root_("", nullptr) {}

  SpanNode root_;
};

/// The RAII timer behind DPAUDIT_SPAN. Disabled telemetry short-circuits the
/// constructor after one relaxed atomic load.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (TelemetryEnabled()) Enter(name);
  }
  ~ScopedSpan() {
    if (node_ != nullptr) Exit();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Enter(const char* name);
  void Exit();

  SpanNode* node_ = nullptr;
  SpanNode* prev_ = nullptr;
  const char* name_ = nullptr;  // static literal, for the event stream
  uint64_t start_ns_ = 0;
};

/// Monotonic clock read in nanoseconds (steady_clock).
uint64_t MonotonicNowNs();

}  // namespace obs
}  // namespace dpaudit

#define DPAUDIT_SPAN_CONCAT_INNER(a, b) a##b
#define DPAUDIT_SPAN_CONCAT(a, b) DPAUDIT_SPAN_CONCAT_INNER(a, b)

/// Times the enclosing scope under the given phase name.
#define DPAUDIT_SPAN(name)                                            \
  ::dpaudit::obs::ScopedSpan DPAUDIT_SPAN_CONCAT(dpaudit_span_,       \
                                                 __COUNTER__)(name)

#endif  // DPAUDIT_OBS_SPAN_H_
