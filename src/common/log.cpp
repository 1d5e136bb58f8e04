#include "common/log.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <string>

namespace pgrid::common {

namespace {
LogLevel level_from_env() {
  const char* env = std::getenv("PGRID_LOG");
  if (!env) return LogLevel::kOff;
  const std::string value(env);
  if (value == "trace") return LogLevel::kTrace;
  if (value == "debug") return LogLevel::kDebug;
  if (value == "info") return LogLevel::kInfo;
  if (value == "warn") return LogLevel::kWarn;
  if (value == "error") return LogLevel::kError;
  return LogLevel::kOff;
}

std::atomic<LogLevel> g_level{level_from_env()};
/// Per thread: each simulator (a city-flow lane, a what-if clone) runs on
/// its own thread and keeps its own trace in sync here, so neither the
/// writes contend nor a line carries another thread's trace.
thread_local std::uint64_t t_trace = 0;

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

void set_log_trace(std::uint64_t trace) { t_trace = trace; }
std::uint64_t log_trace() { return t_trace; }

void log_line(LogLevel level, const std::string& message) {
  if (level < g_level.load()) return;
  const std::uint64_t trace = t_trace;
  if (trace != 0) {
    std::cerr << "[pgrid " << tag(level) << " #" << trace << "] " << message
              << '\n';
  } else {
    std::cerr << "[pgrid " << tag(level) << "] " << message << '\n';
  }
}

}  // namespace pgrid::common
