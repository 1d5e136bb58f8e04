// Order statistics for the perf harness: medians, quartiles, and the tail
// percentile rule (report the highest percentile that still has at least
// ten samples beyond it, so a "p99" is never read off two samples).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pgrid::perf {

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty set.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The tail a sample set can support.
struct Tail {
  double percentile = 50.0;  ///< which percentile `value` is
  double value = 0.0;
  std::size_t samples = 0;
};

/// Samples needed beyond a reported percentile.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// Highest of p50 / p90 / p99 / p99.9 / p99.99 with at least
/// kTailSamplesBeyond samples strictly above its rank; the median when the
/// set is too small for any of them.
inline Tail tail_percentile(const std::vector<double>& samples) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  Tail tail;
  tail.samples = samples.size();
  for (double p : kLadder) {
    const double beyond =
        static_cast<double>(samples.size()) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(kTailSamplesBeyond)) {
      tail.percentile = p;
      tail.value = percentile(samples, p);
      return tail;
    }
  }
  tail.value = median(samples);
  return tail;
}

}  // namespace pgrid::perf
