#include "util/logging.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dpaudit {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  DPAUDIT_CHECK(true);
  DPAUDIT_CHECK_EQ(1, 1);
  DPAUDIT_CHECK_NE(1, 2);
  DPAUDIT_CHECK_LT(1, 2);
  DPAUDIT_CHECK_LE(2, 2);
  DPAUDIT_CHECK_GT(3, 2);
  DPAUDIT_CHECK_GE(3, 3);
  DPAUDIT_CHECK_OK(Status::Ok());
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH({ DPAUDIT_CHECK(1 == 2) << "math broke"; }, "math broke");
}

TEST(CheckDeathTest, FailingCheckEqAborts) {
  int a = 3;
  int b = 4;
  EXPECT_DEATH({ DPAUDIT_CHECK_EQ(a, b); }, "CHECK failed");
}

TEST(CheckDeathTest, FailingCheckOkPrintsStatus) {
  EXPECT_DEATH({ DPAUDIT_CHECK_OK(Status::Internal("bad state")); },
               "bad state");
}

TEST(CheckTest, CheckDoesNotDoubleEvaluate) {
  int calls = 0;
  auto increment = [&calls] { return ++calls; };
  DPAUDIT_CHECK_GT(increment(), 0);
  EXPECT_EQ(calls, 1);
}

// Captures what DPAUDIT_LOG writes to stderr and splits it into records:
// the level letter and the message after the "file:line " prefix.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMinLogLevel(LogLevel::kInfo);
    ::testing::internal::CaptureStderr();
  }
  void TearDown() override {
    if (capturing_) ::testing::internal::GetCapturedStderr();
    SetMinLogLevel(LogLevel::kInfo);
  }

  /// Ends the capture and returns the records written since SetUp.
  std::vector<std::pair<char, std::string>> Records() {
    capturing_ = false;
    std::istringstream lines(::testing::internal::GetCapturedStderr());
    std::vector<std::pair<char, std::string>> records;
    std::string line;
    while (std::getline(lines, line)) {
      EXPECT_EQ(line.rfind("[dpaudit ", 0), 0u) << line;
      const size_t message = line.find(' ', line.find("] ") + 2);
      EXPECT_NE(message, std::string::npos) << line;
      records.emplace_back(line[9], line.substr(message + 1));
    }
    return records;
  }

 private:
  bool capturing_ = true;
};

TEST_F(LogTest, EmitsAtOrAboveThreshold) {
  DPAUDIT_LOG(INFO) << "hello " << 42;
  DPAUDIT_LOG(WARNING) << "careful";
  DPAUDIT_LOG(ERROR) << "broken";
  const auto records = Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].first, 'I');
  EXPECT_EQ(records[0].second, "hello 42");
  EXPECT_EQ(records[1].first, 'W');
  EXPECT_EQ(records[1].second, "careful");
  EXPECT_EQ(records[2].first, 'E');
  EXPECT_EQ(records[2].second, "broken");
}

TEST_F(LogTest, FiltersBelowThreshold) {
  SetMinLogLevel(LogLevel::kWarning);
  DPAUDIT_LOG(INFO) << "suppressed";
  DPAUDIT_LOG(WARNING) << "kept";
  SetMinLogLevel(LogLevel::kError);
  DPAUDIT_LOG(WARNING) << "also suppressed";
  const auto records = Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, 'W');
  EXPECT_EQ(records[0].second, "kept");
}

TEST_F(LogTest, SuppressedMessagesSkipTheStreamChain) {
  SetMinLogLevel(LogLevel::kError);
  int calls = 0;
  auto side_effect = [&calls] { return ++calls; };
  DPAUDIT_LOG(INFO) << side_effect();
  EXPECT_EQ(calls, 0);
  DPAUDIT_LOG(ERROR) << side_effect();
  EXPECT_EQ(calls, 1);
  const auto records = Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, "1");
}

TEST_F(LogTest, LogLevelEnabledMatchesThreshold) {
  SetMinLogLevel(LogLevel::kWarning);
  EXPECT_FALSE(LogLevelEnabled(LogLevel::kInfo));
  EXPECT_TRUE(LogLevelEnabled(LogLevel::kWarning));
  EXPECT_TRUE(LogLevelEnabled(LogLevel::kError));
  EXPECT_EQ(MinLogLevel(), LogLevel::kWarning);
}

}  // namespace
}  // namespace dpaudit
