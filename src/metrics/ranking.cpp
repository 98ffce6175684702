#include "metrics/ranking.hpp"

#include <cmath>
#include <stdexcept>

namespace taamr::metrics {

namespace {
void check(const std::vector<std::vector<std::int32_t>>& lists,
           const data::ImplicitDataset& dataset) {
  if (static_cast<std::int64_t>(lists.size()) != dataset.num_users) {
    throw std::invalid_argument("ranking metric: lists/users mismatch");
  }
}
}  // namespace

double hit_ratio_at_n(const std::vector<std::vector<std::int32_t>>& lists,
                      const data::ImplicitDataset& dataset) {
  check(lists, dataset);
  std::int64_t hits = 0, evaluated = 0;
  for (std::int64_t u = 0; u < dataset.num_users; ++u) {
    const std::int32_t test = dataset.test[static_cast<std::size_t>(u)];
    if (test < 0) continue;
    ++evaluated;
    for (std::int32_t item : lists[static_cast<std::size_t>(u)]) {
      if (item == test) {
        ++hits;
        break;
      }
    }
  }
  return evaluated == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(evaluated);
}

double ndcg_at_n(const std::vector<std::vector<std::int32_t>>& lists,
                 const data::ImplicitDataset& dataset) {
  check(lists, dataset);
  double total = 0.0;
  std::int64_t evaluated = 0;
  for (std::int64_t u = 0; u < dataset.num_users; ++u) {
    const std::int32_t test = dataset.test[static_cast<std::size_t>(u)];
    if (test < 0) continue;
    ++evaluated;
    const auto& list = lists[static_cast<std::size_t>(u)];
    for (std::size_t pos = 0; pos < list.size(); ++pos) {
      if (list[pos] == test) {
        total += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
        break;
      }
    }
  }
  return evaluated == 0 ? 0.0 : total / static_cast<double>(evaluated);
}

}  // namespace taamr::metrics
