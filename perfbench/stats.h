// Small statistics helpers shared by the timed and traced runs, kept apart
// so the self-tests can pin their rules down.
#ifndef CIRANK_PERFBENCH_STATS_H_
#define CIRANK_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Linearly interpolated percentile (pct in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> samples, double pct);
double Median(std::vector<double> samples);

// Samples strictly above the pct-th percentile's rank in a sample of n:
// floor(n * (100 - pct) / 100).
size_t SamplesBeyond(size_t n, double pct);

// The tail rule: the highest of p99 / p95 / p90 that still has at least ten
// samples beyond it; 0 when even p90 has fewer.
double TailPercentileFor(size_t n);

// Attempted and failed operations (searches and clicks). A failure is a
// transport error, a non-200 response, a failed answer check or a failed
// click.
struct OpCounts {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double ErrorRate() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

}  // namespace perfbench

#endif  // CIRANK_PERFBENCH_STATS_H_
