// Leveled logging with a process-global threshold.  Deliberately minimal:
// simulators log at most a handful of lines per run, so no async sinks.
//
// Structured fields: append machine-parseable " key=value" pairs with
// Kv() after the human-readable message, e.g.
//   (LogWarn() << "scenario produced no metrics").Kv("scenario", name);
// String values containing spaces/quotes/'=' are double-quoted, so a
// line stays splittable on spaces outside quotes.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace wsn::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped.
void SetLogLevel(LogLevel level) noexcept;

/// "debug" / "info" / "warn" / "error" / "off".
const char* LogLevelName(LogLevel level) noexcept;

/// Parse a LogLevelName (case-sensitive); throws InvalidArgument on
/// anything else.  Drives wsnctl's --log-level flag.
LogLevel ParseLogLevel(const std::string& name);

/// Emit a message (thread-safe; one line per call).
void LogMessage(LogLevel level, const std::string& message);

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { LogMessage(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

  /// Structured " key=value" field (see the file comment for quoting).
  LogLine& Kv(const std::string& key, const std::string& value) {
    os_ << ' ' << key << '=';
    if (value.empty() ||
        value.find_first_of(" =\"") != std::string::npos) {
      os_ << '"' << value << '"';
    } else {
      os_ << value;
    }
    return *this;
  }
  LogLine& Kv(const std::string& key, const char* value) {
    return Kv(key, std::string(value));
  }
  LogLine& Kv(const std::string& key, bool value) {
    os_ << ' ' << key << '=' << (value ? "true" : "false");
    return *this;
  }
  template <typename T>
  LogLine& Kv(const std::string& key, T value) {
    os_ << ' ' << key << '=' << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail

inline detail::LogLine LogDebug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine LogInfo() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine LogWarn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine LogError() { return detail::LogLine(LogLevel::kError); }

}  // namespace wsn::util
