#include "util/logging.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

#include "util/error.hpp"

namespace wsn::util {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) noexcept { g_level.store(level); }

const char* LogLevelName(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

LogLevel ParseLogLevel(const std::string& name) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    if (name == LogLevelName(level)) return level;
  }
  throw InvalidArgument("unknown log level '" + name +
                        "' (expected debug, info, warn, error or off)");
}

void LogMessage(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  std::lock_guard lock(g_mutex);
  std::clog << "[" << LevelName(level) << "] " << message << "\n";
}

}  // namespace wsn::util
