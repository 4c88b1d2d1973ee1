#include "stats.h"

#include <cmath>
#include <limits>

#include "common/stats.h"

namespace perfbench {

namespace {

/// Samples strictly beyond the p-th percentile of n samples, as the
/// support rule counts them.
std::size_t SamplesBeyond(double p, std::size_t n) {
  // The epsilon keeps 0.1 * 100 from rounding down to 9.
  return static_cast<std::size_t>(
      std::floor((1.0 - p) * static_cast<double>(n) + 1e-9));
}

}  // namespace

PercentileResult TailPercentile(std::span<const double> xs, double p) {
  PercentileResult r;
  r.samples = xs.size();
  r.value = eedc::Percentile(xs, p);
  r.supported = SamplesBeyond(p, xs.size()) >= kMinTailSamples;
  return r;
}

std::size_t MinSamplesFor(double p) {
  // No sample count supports the maximum itself.
  if (p >= 1.0) return std::numeric_limits<std::size_t>::max();
  std::size_t n = 1;
  while (SamplesBeyond(p, n) < kMinTailSamples) ++n;
  return n;
}

}  // namespace perfbench
