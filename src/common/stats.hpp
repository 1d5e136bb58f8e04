// Streaming statistics used by the benchmark harness and the adaptive
// decision maker (estimate-vs-actual error tracking).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace pgrid::common {

/// Welford streaming accumulator: mean/variance/min/max without storing
/// samples.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator (parallel reduction friendly).
  void merge(const Accumulator& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores samples to answer percentile queries; used for latency tails.
class Percentiles {
 public:
  void add(double x) { samples_.push_back(x); }
  std::size_t count() const { return samples_.size(); }
  /// Linear-interpolated percentile, p in [0, 100]. Returns 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Fixed-width histogram over [lo, hi); out-of-range values clamp to the
/// edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t count(std::size_t bucket) const { return counts_.at(bucket); }
  std::size_t total() const { return total_; }
  /// Lower edge of a bucket.
  double edge(std::size_t bucket) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace pgrid::common
