// Logging and CHECK macros.
//
// CHECK-family macros guard internal invariants: they abort the process with a
// file:line message on violation and are active in all build types. They are
// for programmer errors; recoverable conditions use Status (util/status.h).
//
// DPAUDIT_LOG(severity) is non-fatal leveled logging for runtime diagnostics
// (cache fallbacks, degraded modes, startup banners):
//
//   DPAUDIT_LOG(WARNING) << "ignoring unreadable trace " << key;
//
// Messages below the runtime threshold are filtered before any streaming
// work happens. The threshold defaults to INFO and is configurable through
// the DPAUDIT_LOG_LEVEL environment variable (INFO, WARNING, ERROR, or 0-2)
// or SetMinLogLevel(). Output goes to stderr as "[dpaudit I] file:line msg".

#ifndef DPAUDIT_UTIL_LOGGING_H_
#define DPAUDIT_UTIL_LOGGING_H_

#include <iostream>
#include <sstream>
#include <string>

namespace dpaudit {

enum class LogLevel : int {
  kInfo = 0,
  kWarning = 1,
  kError = 2,
};

/// Messages strictly below the returned level are suppressed.
LogLevel MinLogLevel();

/// Overrides the threshold (and whatever DPAUDIT_LOG_LEVEL said).
void SetMinLogLevel(LogLevel level);

inline bool LogLevelEnabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(MinLogLevel());
}

/// The raw stderr-backed stream for intentionally unformatted multi-line
/// output (profile reports, banners). Unlike DPAUDIT_LOG it applies no
/// level filter or record prefix — single-line diagnostics
/// belong in DPAUDIT_LOG. This accessor exists so library code never names
/// std::cerr directly (enforced by the dpaudit-cerr lint rule); never
/// stdout-backed, because experiment stdout is a byte-stable artifact.
std::ostream& RawLogStream();

namespace internal_logging {

// Accumulates the failure message; aborts in the destructor, i.e. at the end
// of the full expression that streamed into it.
class LogMessageFatal {
 public:
  LogMessageFatal(const char* file, int line, const char* condition) {
    stream_ << file << ":" << line << " CHECK failed: " << condition << " ";
  }
  [[noreturn]] ~LogMessageFatal();

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Accumulates one non-fatal record; the destructor writes it to stderr.
class LogMessage {
 public:
  LogMessage(const char* file, int line, LogLevel level)
      : file_(file), line_(line), level_(level) {}
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  LogLevel level_;
  std::ostringstream stream_;
};

// operator& has lower precedence than << but higher than ?:, which lets the
// CHECK macro swallow a trailing stream chain and still yield void.
struct Voidify {
  void operator&(std::ostream&) {}
};

// Targets of the DPAUDIT_LOG(severity) token paste.
constexpr LogLevel kLogINFO = LogLevel::kInfo;
constexpr LogLevel kLogWARNING = LogLevel::kWarning;
constexpr LogLevel kLogERROR = LogLevel::kError;

}  // namespace internal_logging

#define DPAUDIT_CHECK(cond)                                      \
  (cond) ? (void)0                                               \
         : ::dpaudit::internal_logging::Voidify() &              \
               ::dpaudit::internal_logging::LogMessageFatal(     \
                   __FILE__, __LINE__, #cond)                    \
                   .stream()

#define DPAUDIT_CHECK_OP(op, a, b) DPAUDIT_CHECK((a)op(b))
#define DPAUDIT_CHECK_EQ(a, b) DPAUDIT_CHECK_OP(==, a, b)
#define DPAUDIT_CHECK_NE(a, b) DPAUDIT_CHECK_OP(!=, a, b)
#define DPAUDIT_CHECK_LT(a, b) DPAUDIT_CHECK_OP(<, a, b)
#define DPAUDIT_CHECK_LE(a, b) DPAUDIT_CHECK_OP(<=, a, b)
#define DPAUDIT_CHECK_GT(a, b) DPAUDIT_CHECK_OP(>, a, b)
#define DPAUDIT_CHECK_GE(a, b) DPAUDIT_CHECK_OP(>=, a, b)

/// CHECKs that a Status expression is OK.
#define DPAUDIT_CHECK_OK(expr)                                   \
  do {                                                           \
    const auto _st = (expr);                                     \
    DPAUDIT_CHECK(_st.ok()) << _st.ToString();                   \
  } while (0)

/// Non-fatal leveled logging, filtered before the stream chain evaluates.
/// `severity` is INFO, WARNING, or ERROR.
#define DPAUDIT_LOG(severity)                                              \
  (!::dpaudit::LogLevelEnabled(                                            \
      ::dpaudit::internal_logging::kLog##severity))                        \
      ? (void)0                                                            \
      : ::dpaudit::internal_logging::Voidify() &                           \
            ::dpaudit::internal_logging::LogMessage(                       \
                __FILE__, __LINE__,                                        \
                ::dpaudit::internal_logging::kLog##severity)               \
                .stream()

}  // namespace dpaudit

#endif  // DPAUDIT_UTIL_LOGGING_H_
