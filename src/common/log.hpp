// Leveled logging.  Off by default so tests and benches stay quiet; set
// the PGRID_LOG environment variable (trace/debug/info/warn/error) or call
// set_log_level to switch it on.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace pgrid::common {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global minimum level; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Active telemetry trace id of the calling thread; nonzero values prefix
/// that thread's log lines with `#<trace>` so narration correlates with
/// cost-ledger rows.  The simulation kernel keeps this in sync with its
/// trace context — callers rarely set it directly.
void set_log_trace(std::uint64_t trace);
std::uint64_t log_trace();

/// Emits one line to stderr with a level tag. Prefer the PGRID_LOG macro.
void log_line(LogLevel level, const std::string& message);

}  // namespace pgrid::common

/// Usage: PGRID_LOG(kInfo) << "query " << id << " chose " << model;
#define PGRID_LOG(level)                                                      \
  if (::pgrid::common::LogLevel::level < ::pgrid::common::log_level()) {     \
  } else                                                                     \
    ::pgrid::common::LogStream(::pgrid::common::LogLevel::level)

namespace pgrid::common {

/// RAII stream that emits on destruction; used via PGRID_LOG.
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, out_.str()); }
  template <typename T>
  LogStream& operator<<(const T& value) {
    out_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream out_;
};

}  // namespace pgrid::common
