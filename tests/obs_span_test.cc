// Tests for scoped phase spans: nesting, reentrancy, disabled no-op, and
// span-context propagation across thread-pool tasks.

#include "obs/span.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "tests/test_helpers.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace obs {
namespace {

class ObsSpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SpanRegistry::Global().ResetForTest();
    MetricsRegistry::Global().ResetForTest();
    EnableTelemetryForTest(true);
  }
  void TearDown() override {
    EnableTelemetryForTest(false);
    SpanRegistry::Global().ResetForTest();
    MetricsRegistry::Global().ResetForTest();
  }

  // The caller plus one runner per pool worker, at most 4: every runner
  // finds a worker, so a body that waits for all participants cannot hang.
  static size_t PinnableWidth() {
    return std::min<size_t>(4, SharedThreadPool().num_threads() + 1);
  }

  static const SpanRegistry::Stat* Find(
      const std::vector<SpanRegistry::Stat>& stats, const std::string& path) {
    for (const SpanRegistry::Stat& s : stats) {
      if (s.path == path) return &s;
    }
    return nullptr;
  }
};

TEST_F(ObsSpanTest, NestedScopesFormPaths) {
  {
    DPAUDIT_SPAN("outer");
    {
      DPAUDIT_SPAN("inner");
    }
    {
      DPAUDIT_SPAN("inner");
    }
  }
  std::vector<SpanRegistry::Stat> stats = SpanRegistry::Global().Collect();
  const SpanRegistry::Stat* outer = Find(stats, "outer");
  const SpanRegistry::Stat* inner = Find(stats, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_EQ(inner->depth, 1u);
  // The two visits to the same phase aggregate into one node; the parent's
  // total covers the children.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
  EXPECT_EQ(inner->self_ns, inner->total_ns);
}

TEST_F(ObsSpanTest, ReentrantSpanGetsItsOwnChildNode) {
  {
    DPAUDIT_SPAN("phase");
    {
      DPAUDIT_SPAN("phase");
    }
  }
  std::vector<SpanRegistry::Stat> stats = SpanRegistry::Global().Collect();
  const SpanRegistry::Stat* top = Find(stats, "phase");
  const SpanRegistry::Stat* nested = Find(stats, "phase/phase");
  ASSERT_NE(top, nullptr);
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(top->count, 1u);
  EXPECT_EQ(nested->count, 1u);
}

TEST_F(ObsSpanTest, CurrentContextTracksScope) {
  EXPECT_EQ(CurrentSpanContext(), nullptr);
  {
    DPAUDIT_SPAN("a");
    SpanContext a = CurrentSpanContext();
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->name(), "a");
    {
      DPAUDIT_SPAN("b");
      SpanContext b = CurrentSpanContext();
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(b->name(), "b");
      EXPECT_EQ(b->parent(), a);
    }
    EXPECT_EQ(CurrentSpanContext(), a);
  }
  EXPECT_EQ(CurrentSpanContext(), nullptr);
}

TEST_F(ObsSpanTest, ExchangeRestoresPreviousContext) {
  DPAUDIT_SPAN("outer");
  SpanContext outer = CurrentSpanContext();
  SpanContext prev = ExchangeSpanContext(nullptr);
  EXPECT_EQ(prev, outer);
  EXPECT_EQ(CurrentSpanContext(), nullptr);
  ExchangeSpanContext(prev);
  EXPECT_EQ(CurrentSpanContext(), outer);
}

TEST_F(ObsSpanTest, DisabledSpanIsNoOp) {
  EnableTelemetryForTest(false);
  {
    DPAUDIT_SPAN("ghost");
    EXPECT_EQ(CurrentSpanContext(), nullptr);
  }
  EnableTelemetryForTest(true);
  EXPECT_TRUE(SpanRegistry::Global().Collect().empty());
  EXPECT_EQ(SpanRegistry::Global().RootTotalNs(), 0u);
}

TEST_F(ObsSpanTest, SiblingsSortedBySelfTimeDescending) {
  // Visit "slow" many more times than "fast" so its accumulated self time
  // dominates deterministically.
  for (int i = 0; i < 200; ++i) {
    DPAUDIT_SPAN("slow");
    volatile uint64_t sink = 0;
    for (int j = 0; j < 1000; ++j) sink = sink + j;
  }
  {
    DPAUDIT_SPAN("fast");
  }
  std::vector<SpanRegistry::Stat> stats = SpanRegistry::Global().Collect();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].path, "slow");
  EXPECT_EQ(stats[1].path, "fast");
  EXPECT_GE(stats[0].self_ns, stats[1].self_ns);
}

TEST_F(ObsSpanTest, PoolTasksNestUnderSchedulingSpan) {
  // Pinned to one index per participant, so width - 1 spans open on runner
  // tasks, whose context comes from the scheduling thread.
  const size_t width = PinnableWidth();
  {
    DPAUDIT_SPAN("scheduler");
    testing_helpers::Rendezvous all(width);
    ThreadPool::ParallelFor(width, width, [&all](size_t) {
      DPAUDIT_SPAN("worker_phase");
      all.Arrive();
    });
  }
  std::vector<SpanRegistry::Stat> stats = SpanRegistry::Global().Collect();
  const SpanRegistry::Stat* nested = Find(stats, "scheduler/worker_phase");
  ASSERT_NE(nested, nullptr) << "pool task did not adopt the scheduler span";
  EXPECT_EQ(nested->count, width);
  EXPECT_EQ(Find(stats, "worker_phase"), nullptr)
      << "worker span attached to the root instead of the scheduler";
}

TEST_F(ObsSpanTest, ParallelForPropagatesContextToo) {
  {
    DPAUDIT_SPAN("fanout");
    ThreadPool::ParallelFor(16, 4, [](size_t) {
      DPAUDIT_SPAN("body");
    });
  }
  std::vector<SpanRegistry::Stat> stats = SpanRegistry::Global().Collect();
  const SpanRegistry::Stat* body = Find(stats, "fanout/body");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->count, 16u);
}

TEST_F(ObsSpanTest, PoolHooksRecordQueueAndExecuteTimings) {
  // One timing per runner task: the caller's share of a region is not a
  // pool task.
  const size_t width = PinnableWidth();
  const size_t runners = width - 1;
  {
    DPAUDIT_SPAN("timed");
    testing_helpers::Rendezvous all(width);
    ThreadPool::ParallelFor(width, width, [&all](size_t) { all.Arrive(); });
  }
  std::vector<MetricSnapshot> snaps = MetricsRegistry::Global().Snapshot();
  bool saw_queue = false;
  bool saw_execute = false;
  for (const MetricSnapshot& s : snaps) {
    if (s.name == "dpaudit_pool_queue_us") {
      saw_queue = true;
      EXPECT_EQ(s.summary.count(), runners);
    }
    if (s.name == "dpaudit_pool_execute_us") {
      saw_execute = true;
      EXPECT_EQ(s.summary.count(), runners);
    }
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_execute);
}

TEST_F(ObsSpanTest, RootTotalCoversTopLevelSpans) {
  {
    DPAUDIT_SPAN("a");
  }
  {
    DPAUDIT_SPAN("b");
  }
  std::vector<SpanRegistry::Stat> stats = SpanRegistry::Global().Collect();
  uint64_t sum = 0;
  for (const SpanRegistry::Stat& s : stats) {
    if (s.depth == 0) sum += s.total_ns;
  }
  EXPECT_EQ(SpanRegistry::Global().RootTotalNs(), sum);
}

}  // namespace
}  // namespace obs
}  // namespace dpaudit
