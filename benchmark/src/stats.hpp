// Order statistics for the benchmark's reported timings.
#pragma once

#include <cstddef>
#include <vector>

namespace taamr::bench {

// Nearest-rank percentile of an ascending-sorted sample: the smallest value
// with at least q of the sample at or below it. q in [0, 1]. Empty -> 0.
double percentile(const std::vector<double>& sorted, double q);

// Samples strictly above the nearest-rank q-percentile's position.
std::size_t samples_beyond(std::size_t n, double q);

// The highest of p50, p90, p99, p99.9, p99.99 that has at least `min_beyond`
// samples beyond it (the tail a sample of this size supports). q = 0 when
// not even the median qualifies.
struct SupportedTail {
  double q = 0.0;
  double value = 0.0;
};
SupportedTail highest_supported_percentile(const std::vector<double>& sorted,
                                           std::size_t min_beyond = 10);

// Median of an unsorted sample (mean of the middle two for even sizes).
double median(std::vector<double> values);

}  // namespace taamr::bench
