#include "obs/span.h"

#include <algorithm>
#include <chrono>

namespace dpaudit {
namespace obs {
namespace {

thread_local SpanNode* tls_current_span = nullptr;

// ---------------------------------------------------------------------------
// Raw span event stream (Chrome/Perfetto trace export). Each thread appends
// to its own buffer; a global registry keeps the buffers alive (shared_ptr,
// so a pool thread exiting after a test does not invalidate the snapshot).
// ScopedSpan::Exit bounds the stream per span path (kEventsPerSpanNode).

struct SpanEventBuffer {
  std::mutex mu;
  uint32_t tid = 0;
  std::vector<SpanEvent> events;
};

struct SpanEventRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<SpanEventBuffer>> buffers;
};

SpanEventRegistry& EventRegistry() {
  static SpanEventRegistry* registry = new SpanEventRegistry();
  return *registry;
}

SpanEventBuffer* LocalEventBuffer() {
  thread_local std::shared_ptr<SpanEventBuffer> buffer = [] {
    auto made = std::make_shared<SpanEventBuffer>();
    SpanEventRegistry& registry = EventRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    made->tid = static_cast<uint32_t>(registry.buffers.size());
    registry.buffers.push_back(made);
    return made;
  }();
  return buffer.get();
}

void RecordSpanEvent(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  SpanEventBuffer* buffer = LocalEventBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->events.push_back({name, start_ns, dur_ns, buffer->tid});
}

}  // namespace

std::vector<SpanEvent> CollectSpanEvents() {
  SpanEventRegistry& registry = EventRegistry();
  std::vector<std::shared_ptr<SpanEventBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  std::vector<SpanEvent> out;
  for (const std::shared_ptr<SpanEventBuffer>& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

void ResetSpanEventsForTest() {
  SpanEventRegistry& registry = EventRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const std::shared_ptr<SpanEventBuffer>& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
}

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanContext CurrentSpanContext() { return tls_current_span; }

SpanContext ExchangeSpanContext(SpanContext context) {
  SpanNode* prev = tls_current_span;
  tls_current_span = context;
  return prev;
}

SpanNode* SpanNode::GetOrCreateChild(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<SpanNode>& child : children_) {
    if (child->name_ == name) return child.get();
  }
  children_.push_back(std::make_unique<SpanNode>(name, this));
  return children_.back().get();
}

std::vector<SpanNode*> SpanNode::Children() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanNode*> out;
  out.reserve(children_.size());
  for (const std::unique_ptr<SpanNode>& child : children_) {
    out.push_back(child.get());
  }
  return out;
}

SpanRegistry& SpanRegistry::Global() {
  static SpanRegistry* registry = new SpanRegistry();
  return *registry;
}

namespace {

void CollectInto(const SpanNode* node, const std::string& prefix,
                 size_t depth, std::vector<SpanRegistry::Stat>* out) {
  std::vector<std::pair<SpanRegistry::Stat, SpanNode*>> stats;
  for (SpanNode* child : node->Children()) {
    SpanRegistry::Stat stat;
    stat.path = prefix.empty() ? child->name() : prefix + "/" + child->name();
    stat.depth = depth;
    stat.count = child->count();
    stat.total_ns = child->total_ns();
    uint64_t children_total = 0;
    for (SpanNode* grandchild : child->Children()) {
      children_total += grandchild->total_ns();
    }
    stat.self_ns =
        stat.total_ns > children_total ? stat.total_ns - children_total : 0;
    stats.emplace_back(std::move(stat), child);
  }
  std::stable_sort(stats.begin(), stats.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.self_ns > b.first.self_ns;
                   });
  // Emit each child followed by its subtree so the profile reads as a tree.
  for (auto& [stat, child] : stats) {
    std::string path = stat.path;
    out->push_back(std::move(stat));
    CollectInto(child, path, depth + 1, out);
  }
}

}  // namespace

std::vector<SpanRegistry::Stat> SpanRegistry::Collect() const {
  std::vector<Stat> out;
  CollectInto(&root_, "", 0, &out);
  return out;
}

uint64_t SpanRegistry::RootTotalNs() const {
  uint64_t total = 0;
  for (SpanNode* child : root_.Children()) total += child->total_ns();
  return total;
}

void SpanRegistry::ResetForTest() {
  {
    std::lock_guard<std::mutex> lock(root_.mu_);
    root_.children_.clear();
    root_.total_ns_.store(0, std::memory_order_relaxed);
    root_.count_.store(0, std::memory_order_relaxed);
    tls_current_span = nullptr;
  }
  ResetSpanEventsForTest();
}

void ScopedSpan::Enter(const char* name) {
  SpanNode* parent =
      tls_current_span != nullptr ? tls_current_span
                                  : &SpanRegistry::Global().root();
  node_ = parent->GetOrCreateChild(name);
  prev_ = tls_current_span;
  name_ = name;
  tls_current_span = node_;
  start_ns_ = MonotonicNowNs();
}

void ScopedSpan::Exit() {
  const uint64_t elapsed_ns = MonotonicNowNs() - start_ns_;
  if (node_->RecordVisit(elapsed_ns) < kEventsPerSpanNode) {
    RecordSpanEvent(name_, start_ns_, elapsed_ns);
  }
  tls_current_span = prev_;
}

}  // namespace obs
}  // namespace dpaudit
