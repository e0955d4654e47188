#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

size_t SamplesBeyond(size_t n, double pct) {
  // Integer arithmetic in hundredths keeps p99 / n = 1000 exact.
  const auto tail_hundredths = static_cast<size_t>(std::lround(
      (100.0 - pct) * 100.0));
  return n * tail_hundredths / 10000;
}

double TailPercentileFor(size_t n) {
  for (double pct : {99.0, 95.0, 90.0}) {
    if (SamplesBeyond(n, pct) >= 10) return pct;
  }
  return 0.0;
}

}  // namespace perfbench
