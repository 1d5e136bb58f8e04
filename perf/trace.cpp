#include "trace.hpp"

#include <cmath>
#include <iomanip>

namespace pgrid::perf {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t Tracer::begin(const char* name, std::uint64_t query) {
  SpanRecord span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.query = query;
  span.start_ns = now_ns();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scoped spans close innermost-first, so `id` is the top of the stack.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::counter(const char* name, double value) {
  auto it = last_counter_.find(std::string_view(name));
  if (it != last_counter_.end() && it->second == value) return;
  last_counter_[name] = value;
  counters_.push_back({name, now_ns(), value});
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.end_ns >= 0 && name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.end_ns < 0) continue;
    const std::int64_t dur = span.end_ns - span.start_ns;
    self[i] += dur;
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= dur;
  }
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns < 0) continue;
    const std::string_view name(spans_[i].name);
    const std::string layer(name.substr(0, name.find('.')));
    layers[layer] += static_cast<double>(self[i]) / 1e6;
  }
  return layers;
}

namespace {

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

void Tracer::write_chrome(std::ostream& out) const {
  out << std::setprecision(15);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.end_ns < 0) continue;
    const std::string_view name(span.name);
    sep();
    out << "{\"name\":\"" << name << "\",\"cat\":\""
        << name.substr(0, name.find('.')) << "\",\"ph\":\"X\",\"ts\":"
        << static_cast<double>(span.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << ",\"query\":" << span.query
        << "}}";
  }
  for (const CounterRecord& c : counters_) {
    sep();
    out << "{\"name\":\"" << c.name << "\",\"ph\":\"C\",\"ts\":"
        << static_cast<double>(c.ts_ns) / 1e3
        << ",\"pid\":1,\"args\":{\"value\":" << finite_or_zero(c.value)
        << "}}";
  }
  out << "]}\n";
}

}  // namespace pgrid::perf
