#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace pgrid::common {

void Accumulator::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Percentiles::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets == 0 ? 1 : buckets, 0) {}

void Histogram::add(double x) {
  const auto buckets = counts_.size();
  double frac = (x - lo_) / (hi_ - lo_);
  frac = std::clamp(frac, 0.0, 1.0);
  auto idx = static_cast<std::size_t>(frac * static_cast<double>(buckets));
  if (idx >= buckets) idx = buckets - 1;
  ++counts_[idx];
  ++total_;
}

double Histogram::edge(std::size_t bucket) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bucket) /
                   static_cast<double>(counts_.size());
}

}  // namespace pgrid::common
