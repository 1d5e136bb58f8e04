// Unit tests for the perf harness library: the tail-percentile rule, pure
// seeded schedules, stable outcome digests on shortened workloads, and
// well-formed trace output.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace pgrid::perf;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({}, 99.0), 0.0);
  EXPECT_DOUBLE_EQ(median(ramp(101)), 50.0);
}

TEST(Percentile, TailHasTenSamplesBeyondIt) {
  EXPECT_EQ(tail_percentile(ramp(1000)).percentile, 99.0);
  EXPECT_EQ(tail_percentile(ramp(999)).percentile, 90.0);
  EXPECT_EQ(tail_percentile(ramp(100)).percentile, 90.0);
  EXPECT_EQ(tail_percentile(ramp(99)).percentile, 50.0);
  EXPECT_EQ(tail_percentile(ramp(10000)).percentile, 99.9);
  EXPECT_EQ(tail_percentile(ramp(100000)).percentile, 99.99);
  // Too small for any tail: the median, flagged as p50.
  const Tail small = tail_percentile(ramp(5));
  EXPECT_EQ(small.percentile, 50.0);
  EXPECT_DOUBLE_EQ(small.value, 2.0);
  EXPECT_EQ(small.samples, 5u);
  // The reported value is the percentile the rule picked.
  const auto samples = ramp(1000);
  EXPECT_DOUBLE_EQ(tail_percentile(samples).value, percentile(samples, 99.0));
}

bool same_schedule(const Schedule& a, const Schedule& b) {
  if (a.arrivals.size() != b.arrivals.size() ||
      a.transfers.size() != b.transfers.size() || a.crashes_s != b.crashes_s ||
      a.walkers != b.walkers || a.hot_routes != b.hot_routes) {
    return false;
  }
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    const Arrival& x = a.arrivals[i];
    const Arrival& y = b.arrivals[i];
    if (x.at_s != y.at_s || x.region != y.region || x.remote_to != y.remote_to ||
        x.learn != y.learn || x.sensor != y.sensor ||
        x.deadline_s != y.deadline_s || x.text != y.text) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    const Transfer& x = a.transfers[i];
    const Transfer& y = b.transfers[i];
    if (x.at_s != y.at_s || x.from != y.from || x.to != y.to ||
        x.bytes != y.bytes) {
      return false;
    }
  }
  return true;
}

TEST(Schedule, IsAPureFunctionOfTheSeed) {
  for (Workload w : all_workloads()) {
    const Shape shape = default_shape(w);
    const Schedule a = make_schedule(w, shape, 11);
    const Schedule b = make_schedule(w, shape, 11);
    const Schedule c = make_schedule(w, shape, 12);
    EXPECT_FALSE(a.arrivals.empty()) << name_of(w);
    EXPECT_TRUE(same_schedule(a, b)) << name_of(w);
    EXPECT_FALSE(same_schedule(a, c)) << name_of(w);
    for (std::size_t i = 1; i < a.arrivals.size(); ++i) {
      EXPECT_LT(a.arrivals[i].at_s, shape.horizon_s + 1.0) << name_of(w);
    }
  }
}

TEST(Schedule, SharedLoadIsFourFifthsStanding) {
  const Schedule s =
      make_schedule(Workload::kSharedLoad, default_shape(Workload::kSharedLoad), 3);
  std::size_t reads = 0;
  for (const Arrival& a : s.arrivals) reads += a.sensor >= 0 ? 1 : 0;
  EXPECT_EQ(reads * 5, s.arrivals.size());
}

TEST(Schedule, WorkloadNamesRoundTrip) {
  for (Workload w : all_workloads()) {
    EXPECT_EQ(workload_from_name(name_of(w)), w);
  }
  EXPECT_FALSE(workload_from_name("nope").has_value());
}

/// Shortened shapes: the same code paths at a fraction of the cost.
Shape short_shape(Workload w) {
  Shape shape = default_shape(w);
  shape.sensors = 100;
  shape.horizon_s = w == Workload::kStudyBuilding ? 70.0 : 40.0;
  return shape;
}

void expect_stable_digest(Workload w) {
  const Shape shape = short_shape(w);
  const RepResult a = run_rep(w, shape, 5);
  const RepResult b = run_rep(w, shape, 5);
  EXPECT_TRUE(a.gate_failures.empty())
      << name_of(w) << ": " << (a.gate_failures.empty() ? "" : a.gate_failures[0]);
  EXPECT_GT(a.attempted, 0u);
  EXPECT_EQ(a.digest, b.digest) << name_of(w);
  EXPECT_EQ(a.responses_s, b.responses_s) << name_of(w);
  EXPECT_EQ(a.step_ms.size(),
            static_cast<std::size_t>(shape.horizon_s / kStepS + 0.5));
  const RepResult other = run_rep(w, shape, 6);
  EXPECT_NE(a.digest, other.digest) << name_of(w);
}

TEST(Digest, ShortStudyBuildingIsStable) {
  expect_stable_digest(Workload::kStudyBuilding);
}

TEST(Digest, ShortSharedLoadIsStable) {
  expect_stable_digest(Workload::kSharedLoad);
}

TEST(Digest, TracedRepReproducesUntracedDigest) {
  // The traced rep adds the pure pre-calls, spans and counters; none of it
  // may change an outcome.
  for (Workload w : {Workload::kStudyBuilding, Workload::kMobileFailover}) {
    const Shape shape = short_shape(w);
    Tracer tracer;
    const RepResult traced = run_rep(w, shape, 9, RepOptions{&tracer, 0});
    const RepResult plain = run_rep(w, shape, 9);
    EXPECT_EQ(traced.digest, plain.digest) << name_of(w);
    EXPECT_TRUE(traced.gate_failures.empty()) << name_of(w);
    EXPECT_EQ(tracer.open_spans(), 0u);
    EXPECT_EQ(tracer.durations_ms("core.submit").size(), traced.attempted);
    EXPECT_EQ(tracer.durations_ms("query.parse").size(), traced.attempted);
  }
}

// --- trace output ---------------------------------------------------------

/// Minimal JSON syntax checker (RFC 8259 grammar, no semantic checks).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool ok() {
    skip();
    if (!value()) return false;
    skip();
    return i_ == s_.size();
  }

 private:
  void skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool eat(char c) {
    skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool value() {
    skip();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (s_.compare(i_, 4, "true") == 0 || s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
      return true;
    }
    if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      return true;
    }
    return number();
  }
  bool object() {
    ++i_;
    if (eat('}')) return true;
    do {
      skip();
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    ++i_;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      } else if (static_cast<unsigned char>(s_[i_]) < 0x20) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start && std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(Trace, WritesWellFormedJsonWithBalancedSpans) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "bench.step");
    tracer.counter("sim.pending", 3.0);
    {
      ScopedSpan inner(&tracer, "core.submit", 7);
      ScopedSpan innermost(&tracer, "query.parse", 7);
    }
    ScopedSpan sibling(&tracer, "partition.decide", 8);
    tracer.counter("sim.pending", 3.0);  // unchanged: not recorded again
    tracer.counter("sim.pending", 1.0);
  }
  ScopedSpan untraced(nullptr, "ignored");

  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.counters().size(), 2u);
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const SpanRecord& span = tracer.spans()[i];
    EXPECT_GE(span.end_ns, span.start_ns);
    if (span.parent >= 0) {
      const SpanRecord& parent = tracer.spans()[static_cast<std::size_t>(span.parent)];
      EXPECT_LT(static_cast<std::size_t>(span.parent), i);
      EXPECT_GE(span.start_ns, parent.start_ns);
      EXPECT_LE(span.end_ns, parent.end_ns);
    }
  }
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 1);
  EXPECT_EQ(tracer.spans()[3].parent, 0);
  EXPECT_EQ(tracer.spans()[1].query, 7u);

  std::ostringstream out;
  tracer.write_chrome(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).ok()) << json;
  std::size_t complete = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++complete;
  }
  EXPECT_EQ(complete, 4u);

  // Self time: layers partition the outermost span's duration.
  double self_total = 0.0;
  for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
    EXPECT_GE(ms, 0.0) << layer;
    self_total += ms;
  }
  EXPECT_NEAR(self_total, tracer.durations_ms("bench.step").at(0), 1e-9);
}

TEST(Trace, CheckerRejectsMalformedJson) {
  EXPECT_TRUE(JsonChecker("{\"a\":[1,2.5e-3,{\"b\":null}]}").ok());
  EXPECT_FALSE(JsonChecker("{\"a\":[1,2}").ok());
  EXPECT_FALSE(JsonChecker("{\"a\":1,}").ok());
  EXPECT_FALSE(JsonChecker("{\"a\":1} x").ok());
}

}  // namespace
