// ItemKNN: classic item-to-item collaborative filtering (Deshpande &
// Karypis, the paper's reference [23] for top-N recommendation; also the
// algorithm behind Amazon's own recommender in [9]). Cosine similarity on
// item co-occurrence, truncated to the top-k neighbours per item.
//
// A purely collaborative baseline next to VBPR/AMR — and, like MostPop,
// structurally immune to image attacks.
#pragma once

#include "recsys/recommender.hpp"

namespace taamr::recsys {

struct ItemKnnConfig {
  std::int64_t neighbors = 50;  // k: neighbours kept per item
  float shrinkage = 10.0f;      // similarity damping for low-support pairs
};

class ItemKnn : public Recommender {
 public:
  ItemKnn(const data::ImplicitDataset& dataset, ItemKnnConfig config = {});

  std::int64_t num_users() const override { return num_users_; }
  std::int64_t num_items() const override { return num_items_; }
  void score_users(std::span<const std::int64_t> users,
                   std::span<float> out) const override;
  std::string name() const override { return "ItemKNN"; }

  // Top-k neighbour list of an item: (neighbour, similarity), best first.
  const std::vector<std::pair<std::int32_t, float>>& neighbors(std::int32_t item) const;

 private:
  std::int64_t num_users_;
  std::int64_t num_items_;
  const data::ImplicitDataset* dataset_;
  // Per item: truncated similarity list, sorted by similarity descending.
  std::vector<std::vector<std::pair<std::int32_t, float>>> neighbors_;
  // Inverse index: inverse_[j] = {(i, sim) : j in neighbors_(i)} — lets
  // score_users scatter from the user's history. The top-k truncation is
  // asymmetric, so neighbors_(j) is not the same list.
  std::vector<std::vector<std::pair<std::int32_t, float>>> inverse_;
};

}  // namespace taamr::recsys
