#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "util/env.h"

namespace dpaudit {
namespace {

int LevelFromEnv() {
  const std::string raw = EnvString("DPAUDIT_LOG_LEVEL", "");
  if (raw == "WARNING" || raw == "1") {
    return static_cast<int>(LogLevel::kWarning);
  }
  if (raw == "ERROR" || raw == "2") {
    return static_cast<int>(LogLevel::kError);
  }
  return static_cast<int>(LogLevel::kInfo);
}

std::atomic<int>& MinLevelStorage() {
  static std::atomic<int> level{LevelFromEnv()};
  return level;
}

char LevelLetter(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return 'I';
    case LogLevel::kWarning:
      return 'W';
    case LogLevel::kError:
      return 'E';
  }
  return '?';
}

// file paths in __FILE__ can be long; keep the last two components.
const char* ShortFileName(const char* file) {
  const char* last = file;
  const char* prev = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      prev = last;
      last = p + 1;
    }
  }
  return prev;
}

}  // namespace

LogLevel MinLogLevel() {
  return static_cast<LogLevel>(
      MinLevelStorage().load(std::memory_order_relaxed));
}

void SetMinLogLevel(LogLevel level) {
  MinLevelStorage().store(static_cast<int>(level),
                          std::memory_order_relaxed);
}

std::ostream& RawLogStream() { return std::cerr; }

namespace internal_logging {

LogMessageFatal::~LogMessageFatal() {
  std::fprintf(stderr, "[dpaudit fatal] %s\n", stream_.str().c_str());
  std::abort();
}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "[dpaudit %c] %s:%d %s\n", LevelLetter(level_),
               ShortFileName(file_), line_, stream_.str().c_str());
}

}  // namespace internal_logging
}  // namespace dpaudit
