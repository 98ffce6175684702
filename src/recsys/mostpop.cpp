#include "recsys/mostpop.hpp"

#include <algorithm>

namespace taamr::recsys {

MostPop::MostPop(const data::ImplicitDataset& dataset)
    : num_users_(dataset.num_users) {
  const auto counts = dataset.item_train_counts();
  popularity_.reserve(counts.size());
  for (std::int64_t c : counts) popularity_.push_back(static_cast<float>(c));
}

void MostPop::score_users(std::span<const std::int64_t> users,
                          std::span<float> out) const {
  check_score_users(users, out, "MostPop::score_users");
  for (std::size_t r = 0; r < users.size(); ++r) {
    std::copy(popularity_.begin(), popularity_.end(),
              out.begin() + static_cast<std::ptrdiff_t>(r * popularity_.size()));
  }
}

}  // namespace taamr::recsys
