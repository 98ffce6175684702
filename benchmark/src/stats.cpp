#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace taamr::bench {

namespace {
std::size_t rank_index(std::size_t n, double q) {
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n));
  return rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
}
}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[std::min(rank_index(sorted.size(), q), sorted.size() - 1)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - std::min(rank_index(n, q), n - 1);
}

SupportedTail highest_supported_percentile(const std::vector<double>& sorted,
                                           std::size_t min_beyond) {
  SupportedTail best;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (samples_beyond(sorted.size(), q) < min_beyond) break;
    best = {q, percentile(sorted, q)};
  }
  return best;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace taamr::bench
