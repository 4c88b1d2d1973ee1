// Order statistics with an explicit support rule.
//
// A percentile is only worth printing when enough samples lie beyond it:
// a p90 over 20 samples is decided by two of them. The benchmark reports
// a percentile p of n samples only when at least kMinTailSamples samples
// fall above it, i.e. floor((1 - p) * n) >= 10 — so a p90 needs 100
// samples and a median 20. Otherwise the value is flagged unsupported and
// printed as such, never as a number.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <span>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

struct PercentileResult {
  double value = 0.0;  // interpolated order statistic (NaN when n == 0)
  std::size_t samples = 0;
  bool supported = false;
};

/// The p-th percentile (p in [0, 1]) of `xs` with linear interpolation
/// between order statistics, plus whether the support rule holds.
PercentileResult TailPercentile(std::span<const double> xs, double p);

/// Smallest sample count for which the p-th percentile is supported.
std::size_t MinSamplesFor(double p);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
