// Tests for the Chrome/Perfetto trace export: complete ("ph":"X") events
// from the per-thread span event buffers, well-formed JSON (balanced
// braces/brackets outside strings), one event per span visit up to each
// path's bound, and a clean empty export when nothing was recorded.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/span.h"
#include "obs/telemetry.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace obs {
namespace {

class TraceExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SpanRegistry::Global().ResetForTest();
    EnableTelemetryForTest(true);
  }
  void TearDown() override {
    EnableTelemetryForTest(false);
    SpanRegistry::Global().ResetForTest();
  }
};

std::string Export() {
  std::ostringstream out;
  WriteTraceJson(out);
  return out.str();
}

/// Quote-aware structural balance check: '{'/'}' and '['/']' must balance
/// outside string literals, and the document must carry the traceEvents key.
void ExpectWellFormed(const std::string& json) {
  long braces = 0;
  long brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

size_t CountCompleteEvents(const std::string& json) {
  size_t count = 0;
  for (size_t pos = 0;
       (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       pos += 1) {
    ++count;
  }
  return count;
}

TEST_F(TraceExportTest, EmptyExportIsWellFormedWithProcessMetadata) {
  const std::string json = Export();
  ExpectWellFormed(json);
  // The metadata event is always present, so the array is never empty.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TraceExportTest, OneCompleteEventPerSpanVisit) {
  {
    DPAUDIT_SPAN("export_outer");
    { DPAUDIT_SPAN("export_inner"); }
    { DPAUDIT_SPAN("export_inner"); }
  }
  const std::string json = Export();
  ExpectWellFormed(json);

  EXPECT_EQ(CountCompleteEvents(json), 3u);
  EXPECT_NE(json.find("\"name\":\"export_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"export_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"dpaudit\""), std::string::npos);
  // Every complete event needs ts and dur for the viewer's layout.
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(TraceExportTest, PoolWorkersGetDistinctThreadIds) {
  ThreadPool::ParallelForChunked(64, /*threads=*/4, /*grain=*/1,
                                 [&](size_t) {
    DPAUDIT_SPAN("export_task");
  });
  const std::vector<SpanEvent> events = CollectSpanEvents();
  size_t task_events = 0;
  for (const SpanEvent& event : events) {
    if (std::string(event.name) == "export_task") ++task_events;
  }
  EXPECT_EQ(task_events, 64u);
  ExpectWellFormed(Export());
}

TEST_F(TraceExportTest, EachSpanPathKeepsOnlyItsFirstVisits) {
  for (uint64_t i = 0; i < kEventsPerSpanNode + 10; ++i) {
    DPAUDIT_SPAN("export_repeated");
  }
  const std::string json = Export();
  ExpectWellFormed(json);
  EXPECT_EQ(CountCompleteEvents(json), kEventsPerSpanNode);
  // The aggregated profile still counts every visit.
  const std::vector<SpanRegistry::Stat> stats =
      SpanRegistry::Global().Collect();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].path, "export_repeated");
  EXPECT_EQ(stats[0].count, kEventsPerSpanNode + 10);
}

TEST_F(TraceExportTest, DisabledTelemetryRecordsNoEvents) {
  EnableTelemetryForTest(false);
  { DPAUDIT_SPAN("export_disabled"); }
  const std::string json = Export();
  EXPECT_EQ(json.find("export_disabled"), std::string::npos);
  ExpectWellFormed(json);
}

}  // namespace
}  // namespace obs
}  // namespace dpaudit
