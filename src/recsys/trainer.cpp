#include "recsys/trainer.hpp"

#include <stdexcept>
#include <vector>

namespace taamr::recsys {

double sampled_auc(const Recommender& model, const data::ImplicitDataset& dataset,
                   Rng& rng, std::int64_t negatives_per_user) {
  if (negatives_per_user <= 0) {
    throw std::invalid_argument("sampled_auc: non-positive sample count");
  }
  double wins = 0.0;
  std::int64_t comparisons = 0;
  // One score_users row per test user: the lists' own arithmetic.
  std::vector<float> row(static_cast<std::size_t>(dataset.num_items));
  for (std::int64_t u = 0; u < dataset.num_users; ++u) {
    const std::int32_t test_item = dataset.test[static_cast<std::size_t>(u)];
    if (test_item < 0) continue;
    model.score_users({&u, 1}, row);
    const float pos_score = row[static_cast<std::size_t>(test_item)];
    for (std::int64_t s = 0; s < negatives_per_user; ++s) {
      std::int32_t neg;
      do {
        neg = static_cast<std::int32_t>(
            rng.index(static_cast<std::size_t>(dataset.num_items)));
      } while (neg == test_item || dataset.user_interacted(u, neg));
      const float neg_score = row[static_cast<std::size_t>(neg)];
      // Standard AUC convention: ties count half. Matters for sparse
      // scorers (ItemKNN, MostPop) whose scores are often exactly equal.
      if (pos_score > neg_score) {
        wins += 1.0;
      } else if (pos_score == neg_score) {
        wins += 0.5;
      }
      ++comparisons;
    }
  }
  return comparisons == 0 ? 0.0 : wins / static_cast<double>(comparisons);
}

}  // namespace taamr::recsys
