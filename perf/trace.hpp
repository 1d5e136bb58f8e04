// In-memory span and counter recorder for the traced run.
//
// Spans wrap the benchmark's own calls into each layer (the program itself
// is not instrumented): name, host start/end, the enclosing span, and the
// query the call served.  Everything stays in memory until the run ends and
// is then written as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open offline.  Single-threaded: every instrumented call
// runs on the benchmark's main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pgrid::perf {

struct SpanRecord {
  const char* name = "";      ///< static string; the layer is the prefix
  std::int64_t start_ns = 0;  ///< host time since the tracer was created
  std::int64_t end_ns = -1;   ///< -1 while open
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 = root
  std::uint64_t query = 0;    ///< arrival index + 1; 0 = not query-bound
};

struct CounterRecord {
  const char* name = "";
  std::int64_t ts_ns = 0;
  double value = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  std::int32_t begin(const char* name, std::uint64_t query = 0);
  void end(std::int32_t id);

  /// Records a counter sample; a value equal to the counter's previous
  /// sample is skipped, so flat series cost nothing.
  void counter(const char* name, double value);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<CounterRecord>& counters() const { return counters_; }
  std::size_t open_spans() const { return stack_.size(); }

  /// Host durations (ms) of every closed span called `name`.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Self time per layer in ms: each span's duration minus the part its
  /// direct children cover, summed by layer (the name up to the first '.').
  std::map<std::string, double> self_ms_by_layer() const;

  /// Chrome trace-event JSON: one complete ("X") event per closed span and
  /// one counter ("C") event per counter sample.
  void write_chrome(std::ostream& out) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<CounterRecord> counters_;
  std::map<std::string, double, std::less<>> last_counter_;
};

/// RAII span; a no-op when the tracer is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t query = 0)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, query) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

}  // namespace pgrid::perf
