// RuntimeOptions: env defaults, flag overlay + stripping, precedence
// (flag > env > default), validation messages, help generation, and the
// push-down into the util layers.

#include "core/runtime_options.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/thread_pool.h"

namespace dpaudit {
namespace {

const char* const kVars[] = {
    "DPAUDIT_THREADS",        "DPAUDIT_BATCH_LANES",
    "DPAUDIT_TRACE_CACHE",    "DPAUDIT_TELEMETRY",
    "DPAUDIT_PROGRESS",       "DPAUDIT_LOG_LEVEL",
    "DPAUDIT_TRIAL_RETRIES",  "DPAUDIT_RETRY_BACKOFF_MS",
    "DPAUDIT_SWEEP_CHECKPOINT", "DPAUDIT_FAULT_INJECT",
    "DPAUDIT_VERBOSE",
};

class RuntimeOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* var : kVars) unsetenv(var);
  }
  void TearDown() override {
    for (const char* var : kVars) unsetenv(var);
  }
};

/// Runs FromEnvAndArgs over a mutable copy of `args` (argv[0] implied) and
/// returns the surviving arguments through `left`.
StatusOr<RuntimeOptions> ParseArgs(std::vector<std::string> args,
                                   std::vector<std::string>* left = nullptr) {
  std::vector<std::string> storage;
  storage.push_back("test_binary");
  for (const std::string& arg : args) storage.push_back(arg);
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  int argc = static_cast<int>(argv.size());
  StatusOr<RuntimeOptions> options =
      RuntimeOptions::FromEnvAndArgs(&argc, argv.data());
  if (left != nullptr) {
    left->clear();
    for (int i = 1; i < argc; ++i) left->push_back(argv[i]);
  }
  return options;
}

TEST_F(RuntimeOptionsTest, DefaultsWithNothingSet) {
  RuntimeOptions options = RuntimeOptions::FromEnv();
  EXPECT_EQ(options.threads, 0u);
  EXPECT_EQ(options.batch_lanes, -1);
  EXPECT_TRUE(options.trace_cache.empty());
  EXPECT_FALSE(options.telemetry_enabled);
  EXPECT_EQ(options.progress_seconds, 0);
  EXPECT_TRUE(options.log_level.empty());
  EXPECT_EQ(options.trial_retries, 2u);
  EXPECT_EQ(options.retry_backoff_ms, 10u);
  EXPECT_TRUE(options.checkpoint.empty());
  EXPECT_TRUE(options.fault_spec.empty());
  EXPECT_FALSE(options.verbose);
  EXPECT_FALSE(options.help);
  EXPECT_TRUE(options.Validate().ok());
}

TEST_F(RuntimeOptionsTest, EnvironmentLayerOverridesDefaults) {
  setenv("DPAUDIT_THREADS", "7", 1);
  setenv("DPAUDIT_BATCH_LANES", "4", 1);
  setenv("DPAUDIT_TRACE_CACHE", "/tmp/traces", 1);
  setenv("DPAUDIT_TELEMETRY", "/tmp/tele", 1);
  setenv("DPAUDIT_TRIAL_RETRIES", "5", 1);
  setenv("DPAUDIT_SWEEP_CHECKPOINT", "/tmp/run.sweep.jsonl", 1);
  setenv("DPAUDIT_VERBOSE", "1", 1);
  RuntimeOptions options = RuntimeOptions::FromEnv();
  EXPECT_EQ(options.threads, 7u);
  EXPECT_EQ(options.batch_lanes, 4);
  EXPECT_EQ(options.trace_cache, "/tmp/traces");
  EXPECT_TRUE(options.telemetry_enabled);
  EXPECT_EQ(options.telemetry_dir, "/tmp/tele");
  EXPECT_EQ(options.trial_retries, 5u);
  EXPECT_EQ(options.checkpoint, "/tmp/run.sweep.jsonl");
  EXPECT_TRUE(options.verbose);
}

TEST_F(RuntimeOptionsTest, FlagBeatsEnvironment) {
  setenv("DPAUDIT_THREADS", "7", 1);
  StatusOr<RuntimeOptions> options = ParseArgs({"--threads=3"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->threads, 3u);
}

TEST_F(RuntimeOptionsTest, RecognizedFlagsAreStrippedOthersPassThrough) {
  std::vector<std::string> left;
  StatusOr<RuntimeOptions> options = ParseArgs(
      {"positional", "--threads=2", "--unknown=x", "--retries=0",
       "--checkpoint=/tmp/j.jsonl", "--flag"},
      &left);
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->threads, 2u);
  EXPECT_EQ(options->trial_retries, 0u);
  EXPECT_EQ(options->checkpoint, "/tmp/j.jsonl");
  EXPECT_EQ(left,
            (std::vector<std::string>{"positional", "--unknown=x", "--flag"}));
}

TEST_F(RuntimeOptionsTest, SpaceSeparatedFormIsAccepted) {
  std::vector<std::string> left;
  StatusOr<RuntimeOptions> options =
      ParseArgs({"--threads", "4", "--telemetry", "/tmp/t", "keep"}, &left);
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->threads, 4u);
  EXPECT_TRUE(options->telemetry_enabled);
  EXPECT_EQ(options->telemetry_dir, "/tmp/t");
  EXPECT_EQ(left, std::vector<std::string>{"keep"});
}

TEST_F(RuntimeOptionsTest, HelpAndVerboseAreBareSwitches) {
  StatusOr<RuntimeOptions> options = ParseArgs({"--verbose", "--help"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_TRUE(options->verbose);
  EXPECT_TRUE(options->help);
}

TEST_F(RuntimeOptionsTest, MalformedFlagsFailWithActionableMessages) {
  EXPECT_FALSE(ParseArgs({"--threads=zero"}).ok());
  EXPECT_FALSE(ParseArgs({"--threads=0"}).ok());
  EXPECT_FALSE(ParseArgs({"--lanes=-2"}).ok());
  EXPECT_FALSE(ParseArgs({"--log-level=LOUD"}).ok());
  EXPECT_FALSE(ParseArgs({"--retries=-1"}).ok());
  EXPECT_FALSE(ParseArgs({"--fault-inject=bogus"}).ok());
  Status status = ParseArgs({"--threads=zero"}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--threads"), std::string::npos);
}

TEST_F(RuntimeOptionsTest, ValidateRejectsOutOfRangeValues) {
  RuntimeOptions options;
  options.threads = 257;
  EXPECT_FALSE(options.Validate().ok());
  options = RuntimeOptions();
  options.batch_lanes = static_cast<int64_t>(kMaxBatchLanes) + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = RuntimeOptions();
  options.trial_retries = 101;
  EXPECT_FALSE(options.Validate().ok());
  options = RuntimeOptions();
  options.log_level = "SHOUTING";
  EXPECT_FALSE(options.Validate().ok());
  options = RuntimeOptions();
  options.fault_spec = "trial=";
  EXPECT_FALSE(options.Validate().ok());
}

// There is no lane width 0: the lane bodies are the only per-example code,
// and width 1 is their reference instance.
TEST_F(RuntimeOptionsTest, ZeroLanesIsRejectedInFavourOfWidthOne) {
  RuntimeOptions options;
  options.batch_lanes = 0;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("1 runs the width-1 reference"),
            std::string::npos)
      << status.message();
  EXPECT_FALSE(ParseArgs({"--lanes=0"}).ok());
  StatusOr<RuntimeOptions> one = ParseArgs({"--lanes=1"});
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(one->batch_lanes, 1);
  // Callers that bypass Validate still never see width 0.
  SetBatchLanesOverride(0);
  EXPECT_EQ(BatchLanesFromEnv(), 1u);
  SetBatchLanesOverride(-1);
}

TEST_F(RuntimeOptionsTest, HelpListsEveryKnobWithEnvAndDefault) {
  std::ostringstream out;
  PrintRuntimeOptionsHelp("bench_fig08", out);
  const std::string help = out.str();
  EXPECT_NE(help.find("bench_fig08"), std::string::npos);
  for (const RuntimeKnob& knob : RuntimeKnobTable()) {
    EXPECT_NE(help.find(knob.flag), std::string::npos) << knob.flag;
    EXPECT_NE(help.find(knob.env), std::string::npos) << knob.env;
  }
}

TEST_F(RuntimeOptionsTest, ApplyPushesOverridesIntoUtilLayers) {
  RuntimeOptions options;
  options.threads = 5;
  options.batch_lanes = 3;
  ASSERT_TRUE(ApplyRuntimeOptions(options).ok());
  EXPECT_EQ(DefaultThreadCount(), 5u);
  EXPECT_EQ(BatchLanesFromEnv(), 3);
  // Clear the overrides so later suites see env/default behavior again.
  SetDefaultThreadCountOverride(0);
  SetBatchLanesOverride(-1);
  EXPECT_NE(DefaultThreadCount(), 0u);
}

// Keep last in the file: InitRuntimeOptions publishes process-wide and the
// published options shadow the environment for the rest of the process.
TEST_F(RuntimeOptionsTest, ZPublishedOptionsShadowTheEnvironment) {
  setenv("DPAUDIT_TRIAL_RETRIES", "9", 1);
  EXPECT_EQ(CurrentRuntimeOptions().trial_retries, 9u);

  RuntimeOptions options;
  options.trial_retries = 4;
  options.checkpoint = "/tmp/published.sweep.jsonl";
  InitRuntimeOptions(options);
  setenv("DPAUDIT_TRIAL_RETRIES", "77", 1);
  EXPECT_EQ(CurrentRuntimeOptions().trial_retries, 4u);
  EXPECT_EQ(CurrentRuntimeOptions().checkpoint, "/tmp/published.sweep.jsonl");
}

}  // namespace
}  // namespace dpaudit
