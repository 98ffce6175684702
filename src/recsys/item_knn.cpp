#include "recsys/item_knn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace taamr::recsys {

ItemKnn::ItemKnn(const data::ImplicitDataset& dataset, ItemKnnConfig config)
    : num_users_(dataset.num_users),
      num_items_(dataset.num_items),
      dataset_(&dataset),
      neighbors_(static_cast<std::size_t>(dataset.num_items)) {
  if (config.neighbors <= 0) {
    throw std::invalid_argument("ItemKnn: non-positive neighbour count");
  }
  // Co-occurrence counts from per-user item lists (each user contributes
  // |I_u|^2 pairs; cheap for implicit-feedback data).
  std::vector<std::unordered_map<std::int32_t, float>> co(
      static_cast<std::size_t>(num_items_));
  const auto item_counts = dataset.item_train_counts();
  for (const auto& items : dataset.train) {
    for (std::size_t a = 0; a < items.size(); ++a) {
      for (std::size_t b = a + 1; b < items.size(); ++b) {
        co[static_cast<std::size_t>(items[a])][items[b]] += 1.0f;
        co[static_cast<std::size_t>(items[b])][items[a]] += 1.0f;
      }
    }
  }
  // Shrunk cosine: co(i,j) / (sqrt(n_i n_j) + shrinkage) — the shrinkage
  // keeps one-off co-occurrences of rare items from dominating.
  for (std::int64_t i = 0; i < num_items_; ++i) {
    auto& list = neighbors_[static_cast<std::size_t>(i)];
    list.reserve(co[static_cast<std::size_t>(i)].size());
    for (const auto& [j, count] : co[static_cast<std::size_t>(i)]) {
      const float denom =
          std::sqrt(static_cast<float>(item_counts[static_cast<std::size_t>(i)]) *
                    static_cast<float>(item_counts[static_cast<std::size_t>(j)])) +
          config.shrinkage;
      list.emplace_back(j, count / denom);
    }
    std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (static_cast<std::int64_t>(list.size()) > config.neighbors) {
      list.resize(static_cast<std::size_t>(config.neighbors));
    }
  }
  inverse_.resize(static_cast<std::size_t>(num_items_));
  for (std::int64_t i = 0; i < num_items_; ++i) {
    for (const auto& [j, sim] : neighbors_[static_cast<std::size_t>(i)]) {
      inverse_[static_cast<std::size_t>(j)].emplace_back(static_cast<std::int32_t>(i),
                                                         sim);
    }
  }
}

const std::vector<std::pair<std::int32_t, float>>& ItemKnn::neighbors(
    std::int32_t item) const {
  return neighbors_.at(static_cast<std::size_t>(item));
}

void ItemKnn::score_users(std::span<const std::int64_t> users,
                          std::span<float> out) const {
  check_score_users(users, out, "ItemKnn::score_users");
  // score(u, i) = sum of similarities between i and the user's history,
  // scattered over the inverse index from that history: a |I_u| * k pass
  // per user instead of an |I| * k one.
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t r = 0; r < users.size(); ++r) {
    float* row = out.data() + static_cast<std::int64_t>(r) * num_items_;
    for (std::int32_t seen : dataset_->train[static_cast<std::size_t>(users[r])]) {
      for (const auto& [i, sim] : inverse_[static_cast<std::size_t>(seen)]) {
        row[i] += sim;
      }
    }
  }
}

}  // namespace taamr::recsys
